import io
import json
import math
import sys

import pytest

from chebconvex.cli import console_main, emit_columns, main


def run_cli(*args):
    stream = io.StringIO()
    code = main(list(args), stream=stream)
    return code, stream.getvalue()


def run_json(*args):
    code, text = run_cli(*args, "--format", "structured")
    return code, json.loads(text)


class TestSupportCommand:
    def test_cube_fixture(self):
        code, doc = run_json("support", "--system", "poly:3", "--f", "monomial:3",
                             "--knots", "0,1", "--grid", "-2:3:100")
        assert code == 0
        support = doc["support"]
        assert support["coefficients"] == pytest.approx([0.0, -1.0, 2.0], abs=1e-6)
        assert support["pattern"]["overall"] is True
        assert support["c_n"]["converged"] is True
        assert doc["seed"] == 0
        assert doc["schema"] == "chebconvex.report/1"

    def test_pattern_failure_exits_two(self):
        code, doc = run_json("support", "--system", "poly:3", "--f", "negmonomial:3",
                             "--knots", "0,1", "--grid", "-2:3:60")
        assert code == 2
        assert doc["support"]["pattern"]["overall"] is False

    def test_columns_output(self):
        code, text = run_cli("support", "--system", "poly:3", "--f", "monomial:3",
                             "--knots", "0,1", "--grid", "-2:3:100",
                             "--format", "columns")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "x f omega diff segment"
        assert len(lines) == 101
        for line in lines[1:]:
            x, fx, ox, diff, seg = line.split()
            x, fx, ox, diff = map(float, (x, fx, ox, diff))
            assert fx == pytest.approx(x ** 3)
            assert diff == pytest.approx(fx - ox, abs=1e-12)
            if x < 0:
                assert seg == "1" and diff <= 1e-9
            elif x > 1:
                assert seg == "3" and diff >= -1e-9
            elif 0 < x < 1:
                assert seg == "2" and diff >= -1e-9

    def test_columns_evaluate_target_once_per_grid_point(self, monkeypatch):
        from collections import Counter

        from chebconvex import CallableSource, cli
        calls = Counter()

        def cube(x):
            calls[x] += 1
            return x ** 3

        monkeypatch.setattr(cli, "parse_function", lambda spec: CallableSource(cube))
        code, text = run_cli("support", "--system", "poly:3", "--f", "monomial:3",
                             "--knots", "0.05,1.05", "--grid", "-2:3:100",
                             "--format", "columns")
        assert code == 0
        grid = [float(line.split()[0]) for line in text.strip().splitlines()[1:]]
        assert len(grid) == 100
        assert max(calls[x] for x in grid) == 1

    def test_tangent_fixture_columns_diff_nonnegative(self):
        code, text = run_cli("support", "--system", "poly:2", "--f", "exp:1",
                             "--knots", "0", "--grid", "-1:1:60",
                             "--interval", "-1:1", "--format", "columns")
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            diff = float(line.split()[3])
            assert diff >= -1e-8

    def test_emit_columns_empty_rows(self):
        assert emit_columns({"_columns": []}) == "x f omega diff segment\n"

    def test_emit_columns_requires_support_report(self):
        from chebconvex import ArgumentError
        with pytest.raises(ArgumentError):
            emit_columns({})


class TestCertifyCommand:
    def test_violated_exits_two_with_witness(self):
        code, doc = run_json("certify", "--method", "theoremA",
                             "--system", "poly:3", "--f", "negmonomial:3",
                             "--grid", "-1:1:30")
        assert code == 2
        cert = doc["certificate"]
        assert cert["verdict"] == "violated"
        assert len(cert["witness"]) == 4
        assert cert["min_value"] < 0

    def test_certified_exits_zero(self):
        code, doc = run_json("certify", "--method", "corollary1",
                             "--system", "poly:2", "--f", "exp:1",
                             "--grid", "-1:1:25")
        assert code == 0
        assert doc["certificate"]["verdict"] == "certified-on-sample"
        assert "disclaimer" in doc

    def test_theorem2_scan(self):
        code, doc = run_json("certify", "--method", "theorem2",
                             "--system", "poly:3", "--f", "monomial:3",
                             "--knots", "0,1", "--grid", "-2:3:50",
                             "--interval", "-2:3")
        assert code == 0
        assert doc["monotonicity"]["ok"] is True

    def test_definition_method(self):
        code, doc = run_json("certify", "--method", "definition",
                             "--system", "poly:2", "--f", "monomial:2",
                             "--nodes", "0,1", "--grid", "-1:2:40")
        assert code == 0
        assert doc["certificate"]["method"] == "definition"

    def test_method_argument_requirements(self):
        code, _ = run_cli("certify", "--method", "theorem2", "--system", "poly:3",
                          "--f", "monomial:3", "--grid", "-2:3:50")
        assert code == 1
        code, _ = run_cli("certify", "--method", "definition", "--system", "poly:2",
                          "--f", "monomial:2", "--grid", "-1:2:40")
        assert code == 1

    def test_linear_table_flagged(self, tmp_path):
        path = tmp_path / "t.csv"
        xs = [i / 200 * 2 - 1 for i in range(201)]
        path.write_text("\n".join(f"{x},{math.exp(x)}" for x in xs))
        code, doc = run_json("certify", "--method", "theoremA",
                             "--system", "poly:2", "--f", f"table:{path}:linear",
                             "--grid", "-0.9:0.9:15", "--interval", "-1:1")
        assert code == 0
        assert doc["certificate"]["linear_table_interpolation"] is True

    @pytest.mark.parametrize("method, budget, coverage, checked", [
        ("theoremA", "10000", "exhaustive", math.comb(20, 4)),
        ("theoremA", "500", "windows", 20 - 3),
        ("corollary1", "500", "windows", 20 - 3),
    ])
    def test_coverage_reported(self, method, budget, coverage, checked):
        code, doc = run_json("certify", "--method", method, "--system", "poly:3",
                             "--f", "monomial:3", "--grid", "-1:1:20", "--budget", budget)
        assert code == 0
        cert = doc["certificate"]
        assert (cert["coverage"], cert["tuples_checked"]) == (coverage, checked)

    def test_definition_reports_no_coverage(self):
        _, doc = run_json("certify", "--method", "definition",
                          "--system", "poly:2", "--f", "monomial:2",
                          "--nodes", "0,1", "--grid", "-1:2:40")
        assert doc["certificate"]["coverage"] is None


class TestClassifyCommand:
    @pytest.mark.parametrize("system, grid, coverage, checked", [
        ("poly:3", "-1:1:20", "windows", 18),
        # cos changes sign at pi / 2: the windows of cos alone do not keep one
        ("cossin", "0.1:3.1:30", "sampled", 100),
    ])
    def test_coverage_reported(self, system, grid, coverage, checked):
        code, doc = run_json("classify", "--system", system, "--grid", grid,
                             "--budget", "100")
        assert code == 0
        result = doc["classification"]
        assert (result["coverage"], result["tuples_checked"]) == (coverage, checked)

    def test_positive_exits_zero(self):
        code, doc = run_json("classify", "--system", "poly:3", "--grid", "-1:1:20")
        assert code == 0
        assert doc["classification"]["verdict"] == "positive"

    def test_non_chebyshev_exits_two(self):
        code, doc = run_json("classify", "--system", "cos",
                             "--grid", "0:3.141592653589793:41")
        assert code == 2
        assert doc["classification"]["verdict"] == "non-chebyshev"
        assert doc["classification"]["witness"]

    def test_negative_exits_zero(self):
        code, doc = run_json("classify", "--system", "negpoly:1", "--grid", "-1:1:10")
        assert code == 0
        assert doc["classification"]["verdict"] == "negative"

    def test_system_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("interval -2 3 closed closed\nmonomial 0\nmonomial 1\n")
        code, doc = run_json("classify", "--system", str(path), "--grid", "-2:3:12")
        assert code == 0
        assert doc["system"]["basis"] == ["1", "x"]

    def test_grid_from_table_file(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(f"{x/7},0" for x in range(-7, 8)))
        code, doc = run_json("classify", "--system", "poly:3", "--grid", str(path))
        assert code == 0
        assert doc["classification"]["verdict"] == "positive"
        assert doc["classification"]["tuples_checked"] == math.comb(15, 3)
        assert doc["classification"]["coverage"] == "exhaustive"


class TestTableFiles:
    """A table file that gives both the grid and the target is parsed once."""

    @staticmethod
    def counting_loads(monkeypatch):
        from chebconvex import cli, functions
        paths = []
        load = functions.load_table

        def counting(source, *args, **kwargs):
            paths.append(getattr(source, "name", None))
            return load(source, *args, **kwargs)

        monkeypatch.setattr(functions, "load_table", counting)
        monkeypatch.setattr(cli, "load_table", counting)
        return paths

    @pytest.mark.parametrize("method, points", [("theorem2", ("--knots", "0.0,1.0")),
                                                ("definition", ("--nodes", "-1.0,0.0,1.0"))])
    def test_grid_and_target_from_one_file(self, monkeypatch, tmp_path, method, points):
        path, copy = tmp_path / "cube.tsv", tmp_path / "copy.tsv"
        text = "# x x^3\n" + "".join(f"{x / 20!r} {(x / 20) ** 3!r}\n"
                                      for x in range(-40, 61))
        path.write_text(text)
        copy.write_text(text)
        argv = ["certify", "--method", method, "--system", "poly:3",
                "--interval", "-2:3", *points, "--format", "structured"]
        paths = self.counting_loads(monkeypatch)
        once = run_cli(*argv, "--f", f"table:{path}", "--grid", str(path))
        assert paths == [str(path)]
        twice = run_cli(*argv, "--f", f"table:{path}", "--grid", str(copy))
        assert paths == [str(path), str(path), str(copy)]
        assert once == twice and once[0] == 0


class TestDdCommand:
    def test_value_with_classical(self):
        code, doc = run_json("dd", "--system", "poly:3", "--f", "monomial:3",
                             "--points", "0,1,2", "--classical")
        assert code == 0
        assert doc["dd"]["value"] == pytest.approx(3.0)
        assert doc["classical"] == pytest.approx(3.0)
        assert "path" not in doc


class TestZeroEvidence:
    """A run that checked no point must fail, never certify."""

    def assert_nothing_checked(self, capsys, *args):
        code, out = run_cli(*args)
        assert code == 1
        assert out == ""
        assert "nothing was checked" in capsys.readouterr().err

    def test_definition_with_every_point_excluded(self, capsys):
        self.assert_nothing_checked(
            capsys, "certify", "--method", "definition", "--system", "poly:2",
            "--f", "negmonomial:2", "--nodes", "0,1", "--grid", "0:1:2")

    def test_support_with_every_point_excluded(self, capsys):
        self.assert_nothing_checked(
            capsys, "support", "--system", "poly:2", "--f", "negmonomial:2",
            "--knots", "0.5", "--grid", "0.5:0.50001:2", "--interval", "0:1")

    def test_theorem2_with_an_empty_scan(self, capsys):
        self.assert_nothing_checked(
            capsys, "certify", "--method", "theorem2", "--system", "poly:3",
            "--f", "negmonomial:3", "--knots", "0,1", "--grid", "0:1:2",
            "--interval", "-2:3")


class TestUsageErrors:
    def test_unknown_system(self):
        code, _ = run_cli("classify", "--system", "wavelet:3", "--grid", "-1:1:10")
        assert code == 1

    def test_bad_grid(self):
        code, _ = run_cli("classify", "--system", "poly:2", "--grid", "nope")
        assert code == 1

    def test_missing_required(self):
        code, _ = run_cli("classify", "--system", "poly:2")
        assert code == 1

    def test_nonpositive_tolerance(self):
        # NaN or inf would let this violated target pass as certified.
        for flag, value in [("--atol", "-1"), ("--atol", "nan"), ("--rtol", "nan"),
                            ("--atol", "inf")]:
            code, _ = run_cli("certify", "--method", "theoremA", "--system", "poly:4",
                              "--f", "negmonomial:4", "--grid", "-2:3:13", flag, value)
            assert code == 1, (flag, value)

    @pytest.mark.parametrize("args", [
        ("dd", "--system", "poly:2", "--f", "monomial:2", "--points", ""),
        ("support", "--system", "poly:3", "--f", "monomial:3", "--grid", "-2:3:50",
         "--knots", ""),
        ("classify", "--system", "", "--grid", "-1:1:10"),
        ("dd", "--system", "poly:2", "--f", "", "--points", "0,1,2"),
        ("classify", "--system", "poly:2", "--grid", ""),
        ("classify", "--system", "poly:2", "--grid", "-1:1:10", "--interval", ""),
    ], ids=["points", "knots", "system", "f", "grid", "interval"])
    def test_empty_option_value(self, capsys, args):
        code, out = run_cli(*args)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_columns_for_classify_is_usage_error(self):
        code, _ = run_cli("classify", "--system", "poly:2", "--grid", "-1:1:10",
                          "--format", "columns")
        assert code == 1

    @pytest.mark.parametrize("target, message", [
        ("monomial:inf", "monomial parameter inf is not finite"),
        ("monomial:nan", "monomial parameter nan is not finite"),
        ("const:nan", "const parameter nan is not finite"),
        ("poly:1,inf", "poly parameter inf is not finite"),
    ])
    def test_nonfinite_target_parameter(self, capsys, target, message):
        # int() of an infinite or NaN power used to escape cli.main as a traceback.
        code, out = run_cli("dd", "--system", "poly:2", "--f", target, "--points", "0,1")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("line", ["monomial inf", "monomial 1e400"])
    def test_nonfinite_system_file_power(self, capsys, tmp_path, line):
        path = tmp_path / "sys.txt"
        path.write_text(f"interval 0 1\nmonomial 0\n{line}\n", encoding="utf-8")
        code, out = run_cli("classify", "--system", str(path), "--grid", "0:1:5")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: line 3: monomial parameter inf is not finite\n"

    @pytest.mark.parametrize("grid", ["nan:1:5", "0:inf:5", "1e400:1:5"])
    def test_nonfinite_grid_bound(self, capsys, grid):
        # float() reads these; they used to reach uniform_grid, whose error
        # blamed an unbounded interval.
        code, out = run_cli("classify", "--system", "poly:2", "--interval", "0:1",
                            "--grid", grid)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: --grid bounds must be finite, got {grid!r}\n")

    @pytest.mark.parametrize("grid", ["1:0:5", "0:0:5"])
    def test_grid_bounds_out_of_order(self, capsys, grid):
        code, _ = run_cli("classify", "--system", "poly:2", "--grid", grid)
        assert code == 1
        lo, hi = (float(v) for v in grid.split(":")[:2])
        assert capsys.readouterr().err == (
            f"error: grid bounds need lo < hi, got lo={lo!r}, hi={hi!r}\n")


@pytest.mark.parametrize("argv, code", [
    (["reproduce-paper-example"], 0),
    (["classify", "--system", "cos", "--grid", "0:3.141592653589793:41"], 2),
    (["dd", "--system", "poly:2", "--f", "monomial:inf", "--points", "0,1"], 1),
])
def test_console_script_exit_codes(monkeypatch, capsys, argv, code):
    """``console_main``, the installed ``chebconvex`` script, reads sys.argv
    and exits with main's code."""
    monkeypatch.setattr(sys, "argv", ["chebconvex", *argv])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code
    assert "Traceback" not in capsys.readouterr().err


class TestFileErrors:
    """A file that cannot be opened, decoded or written exits 1 with an
    ``error:`` line and no report."""

    def assert_file_error(self, capsys, *args, start="error: "):
        code, out = run_cli(*args)
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith(start)

    @pytest.fixture
    def latin1(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("# d\xe9j\xe0 vu\n0 0\n1 1\n".encode("latin-1"))
        return str(path)

    def test_missing_table_file(self, capsys, tmp_path):
        self.assert_file_error(capsys, "dd", "--system", "poly:2", "--points", "0,1",
                               "--f", f"table:{tmp_path / 'missing.txt'}")

    def test_unwritable_out_path(self, capsys, tmp_path):
        self.assert_file_error(capsys, "dd", "--system", "poly:2", "--points", "0,1",
                               "--f", "monomial:2", "--out", str(tmp_path / "no" / "out"))

    def test_non_utf8_table_file(self, capsys, latin1):
        self.assert_file_error(capsys, "dd", "--system", "poly:2", "--points", "0,1",
                               "--f", f"table:{latin1}:linear",
                               start=f"error: --f {latin1}: not UTF-8 text ('utf-8' codec ")

    def test_non_utf8_system_file(self, capsys, latin1):
        self.assert_file_error(capsys, "dd", "--system", latin1, "--points", "0,1",
                               "--f", "monomial:2",
                               start=f"error: --system {latin1}: not UTF-8 text ('utf-8' codec ")

    def test_non_utf8_grid_file(self, capsys, latin1):
        self.assert_file_error(capsys, "classify", "--system", "poly:2", "--grid", latin1,
                               start=f"error: --grid {latin1}: not UTF-8 text ('utf-8' codec ")


class TestDeterminism:
    CASES = [
        ("reproduce-paper-example",),
        ("support", "--system", "poly:3", "--f", "monomial:3",
         "--knots", "0,1", "--grid", "-2:3:50"),
        ("certify", "--method", "theoremA", "--system", "poly:2",
         "--f", "exp:1", "--grid", "-1:1:30", "--seed", "7"),
        ("classify", "--system", "poly:3", "--grid", "-1:1:60",
         "--budget", "400", "--seed", "3"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_identical_runs_are_byte_identical(self, case):
        first = run_cli(*case, "--format", "structured")
        second = run_cli(*case, "--format", "structured")
        assert first[1].encode() == second[1].encode()
        assert first[0] == second[0]

    def test_seed_env_var(self, monkeypatch):
        monkeypatch.setenv("CHEBCONVEX_SEED", "42")
        _, doc = run_json("classify", "--system", "poly:2", "--grid", "-1:1:10")
        assert doc["seed"] == 42
        monkeypatch.setenv("CHEBCONVEX_SEED", "oops")
        code, _ = run_cli("classify", "--system", "poly:2", "--grid", "-1:1:10")
        assert code == 1

    def test_parse_config_calls_are_independent(self, monkeypatch):
        from chebconvex.cli import parse_config
        seeded = parse_config(["classify", "--system", "poly:2", "--grid", "0:1:5",
                               "--seed", "11", "--budget", "7"])
        monkeypatch.setenv("CHEBCONVEX_SEED", "23")
        plain = parse_config(["dd", "--system", "poly:3", "--f", "monomial:3",
                              "--points", "0,1,2"])
        assert (seeded.command, seeded.seed, seeded.budget) == ("classify", 11, 7)
        assert (plain.command, plain.seed, plain.budget) == ("dd", 23, 50_000)
        assert plain.grid is None and plain.points == (0.0, 1.0, 2.0)
        assert seeded.points is None and seeded.grid == (0.0, 1.0, 5)

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code, text = run_cli("classify", "--system", "poly:2", "--grid", "-1:1:10",
                             "--format", "structured", "--out", str(out))
        assert code == 0
        assert text == ""
        assert json.loads(out.read_text())["classification"]["verdict"] == "positive"

    def test_separate_processes_are_byte_identical(self):
        import subprocess
        import sys
        cmd = [sys.executable, "-m", "chebconvex.cli", "support",
               "--system", "poly:3", "--f", "monomial:3", "--knots", "0,1",
               "--grid=-2:3:40", "--format", "structured"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class TestPaperExampleCommand:
    def test_all_checks_pass(self):
        code, doc = run_json("reproduce-paper-example")
        assert code == 0
        assert all(c["pass"] for c in doc["checks"])
        assert doc["support"]["coefficients"] == pytest.approx([0.0, -1.0, 2.0],
                                                               abs=1e-6)
        assert doc["support"]["c_n"]["monotone_ok"] is True
        h_trace = doc["support"]["c_n"]["h_trace"]
        assert all(b[0] == pytest.approx(a[0] / 2) for a, b in zip(h_trace, h_trace[1:]))

    def test_human_format_mentions_checks(self):
        code, text = run_cli("reproduce-paper-example")
        assert code == 0
        assert "checks" in text
