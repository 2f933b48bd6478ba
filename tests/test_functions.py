import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, BasisFunction, CallableSource,
                        ChebConvexError, DomainError, ExpressionSource, ResolutionError, SourceEvalError,
                        TableFormatError, TableSource, load_table,
                        parse_function)


class TestExpressionSource:
    def test_monomial_cube(self):
        assert ExpressionSource("monomial", (3,))(2.0) == 8.0

    def test_negmonomial(self):
        assert ExpressionSource("negmonomial", (3,))(2.0) == -8.0

    def test_exp_and_trig(self):
        assert ExpressionSource("exp", (0.0,))(3.0) == 1.0
        assert ExpressionSource("cos")(0.0) == 1.0
        assert ExpressionSource("sin")(0.0) == 0.0

    def test_poly_is_horner(self):
        f = ExpressionSource("poly", (1.0, -2.0, 0.5))
        x = 1.7
        assert f(x) == pytest.approx(1.0 - 2.0 * x + 0.5 * x * x)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            ExpressionSource("sqrt")
        with pytest.raises(ArgumentError):
            ExpressionSource("monomial", (1.5,))
        with pytest.raises(ArgumentError):
            ExpressionSource("poly", ())
        with pytest.raises(ArgumentError):
            ExpressionSource("cos", (1.0,))
        # Non-finite parameters are rejected when the form is built, before
        # int() of a power could raise OverflowError or ValueError.
        for form, params in [("monomial", (math.inf,)), ("negmonomial", (math.nan,)),
                             ("const", (math.nan,)), ("exp", (-math.inf,)),
                             ("poly", (1.0, math.inf))]:
            with pytest.raises(ArgumentError, match="is not finite"):
                ExpressionSource(form, params)

    @settings(max_examples=300, deadline=None)
    @given(form=st.sampled_from(["monomial", "negmonomial", "exp", "cos", "sin", "const"]),
           power=st.integers(0, 8), real=st.floats(-750.0, 750.0),
           x=st.floats(-50.0, 50.0))
    def test_agrees_with_basis_function(self, form, power, real, x):
        """A basis function and a target of the same closed form take the
        same value, wherever both give one."""
        params = {"monomial": (power,), "negmonomial": (power,), "cos": (),
                  "sin": ()}.get(form, (float(real),))
        try:
            basis_value = BasisFunction(form, *params)(x)
            target_value = ExpressionSource(form, params)(x)
        except ChebConvexError:  # an overflow, which each reports its own way
            return
        assert repr(basis_value) == repr(target_value)

    def test_nonfinite_is_source_error(self):
        f = CallableSource(lambda x: math.nan)
        with pytest.raises(SourceEvalError):
            f(0.0)
        g = ExpressionSource("exp", (1.0,))
        with pytest.raises(SourceEvalError):
            g(1e6)


class TestTableSource:
    def test_exact_rows(self):
        f = load_table("0,0\n1,1\n2,8\n")
        assert f(1.0) == 1.0
        assert f(2.0) == 8.0

    def test_linear_interpolation(self):
        f = load_table("0,0\n1,1\n", interpolation="linear")
        assert f(0.5) == 0.5
        assert f.uses_linear_interpolation

    def test_off_table_without_interpolation(self):
        f = load_table("0,0\n1,1\n")
        with pytest.raises(ResolutionError):
            f(0.5)

    def test_outside_hull_with_interpolation(self):
        f = load_table("0,0\n1,1\n", interpolation="linear")
        with pytest.raises(DomainError):
            f(2.0)

    def test_unsorted_input_sorted_on_load(self):
        f = load_table("2 8\n0 0\n1 1\n")
        assert f.xs == (0.0, 1.0, 2.0)
        assert f(2.0) == 8.0

    def test_duplicate_abscissae_with_line_numbers(self):
        with pytest.raises(TableFormatError) as info:
            load_table("0,0\n1,1\n1,2\n")
        assert set(info.value.lines) == {2, 3}

    def test_non_numeric_cell(self):
        with pytest.raises(TableFormatError) as info:
            load_table("x,y\n0,0\noops,1\n")  # header ok, line 3 is not
        assert info.value.lines == (3,)

    def test_wrong_column_count(self):
        with pytest.raises(TableFormatError):
            load_table("0,0,0\n")

    def test_comments_and_blank_lines(self):
        f = load_table("# header comment\n\n0 0  # origin\n1 1\n")
        assert f.xs == (0.0, 1.0)

    def test_empty_table(self):
        with pytest.raises(TableFormatError):
            load_table("# nothing\n")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_nonfinite_abscissa_names_its_line(self, cell):
        with pytest.raises(TableFormatError, match="line 4: non-finite") as info:
            load_table(f"0 0\n1 1\n2 4\n{cell} 9\n")
        assert info.value.lines == (4,)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_source_rejects_nonfinite_abscissa(self, x):
        with pytest.raises(ArgumentError, match="non-finite table abscissa"):
            TableSource([0.0, 1.0, 2.0, x], [0.0, 1.0, 4.0, 9.0])

    def test_max_spacing_window(self):
        f = load_table("\n".join(f"{x/10},{x}" for x in range(11)))
        assert f.max_spacing_within(0.0, 1.0) == pytest.approx(0.1)
        with pytest.raises(ResolutionError):
            f.max_spacing_within(0.5, 2.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.floats(-5, 5, allow_nan=False)),
                    min_size=1, max_size=12, unique_by=lambda t: t[0]))
    def test_round_trip_reproduces_ordinates(self, rows):
        text = "\n".join(f"{x}, {y!r}" for x, y in rows)
        f = load_table(text)
        for x, y in rows:
            assert f(float(x)) == y


class TestParseFunction:
    def test_forms(self):
        assert parse_function("monomial:3")(2.0) == 8.0
        assert parse_function("negmonomial:3")(2.0) == -8.0
        assert parse_function("exp:1")(0.0) == 1.0
        assert parse_function("const:2.5")(9.0) == 2.5
        assert parse_function("poly:0,0,0,1")(2.0) == 8.0
        assert parse_function("cos")(0.0) == 1.0

    def test_table_path(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("0,0\n1,1\n2,8\n")
        f = parse_function(f"table:{path}")
        assert f(2.0) == 8.0
        g = parse_function(f"table:{path}:linear")
        assert g(0.5) == 0.5

    def test_bad_specs(self):
        with pytest.raises(ArgumentError):
            parse_function("gamma:3")
        with pytest.raises(ArgumentError):
            parse_function("monomial:x")
        with pytest.raises(ArgumentError):
            parse_function("table:")
        for spec, message in [("monomial:inf", "monomial parameter inf is not finite"),
                              ("const:nan", "const parameter nan is not finite"),
                              ("poly:1,inf", "poly parameter inf is not finite"),
                              ("monomial:", "monomial takes exactly one parameter"),
                              ("cos:1", "cos takes no parameter"),
                              ("exp:1,x", "bad function parameter list '1,x'")]:
            with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
                parse_function(spec)


def line_by_line_table(lines):
    """The table parse one line at a time: the xs and ys of the sorted rows,
    or the message and line numbers of the first error."""
    rows, header_allowed = [], True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cells = line.replace(",", " ").split()
        if len(cells) != 2:
            return f"line {lineno}: expected 2 columns, got {len(cells)}", (lineno,)
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            return f"line {lineno}: non-numeric cell in {line!r}", (lineno,)
        header_allowed = False
        if not math.isfinite(x):
            return f"line {lineno}: non-finite abscissa {x!r}", (lineno,)
        rows.append((x, y, lineno))
    if not rows:
        return "table contains no data rows", ()
    rows.sort(key=lambda r: r[0])
    for (x0, _, l0), (x1, _, l1) in zip(rows, rows[1:]):
        if x0 == x1:
            return f"duplicate abscissa {x0!r} on lines {l0} and {l1}", (l0, l1)
    return [r[0] for r in rows], [r[1] for r in rows]


def parsed(source):
    """What :func:`load_table` makes of ``source``, in the oracle's form."""
    try:
        table = load_table(source)
    except TableFormatError as exc:
        return str(exc), tuple(exc.lines)
    return list(table.xs), list(table.ys)


def same(got, want):
    """Equal outcomes, floats compared by repr (NaN ordinates included)."""
    return repr(got) == repr(want)


#: Lines of every kind a table may hold, and a few that it may not.
TABLE_LINES = st.one_of(
    st.tuples(st.integers(-40, 40), st.floats(allow_infinity=True)).map(
        lambda r: f"{r[0] / 4!r} {r[1]!r}"),
    st.tuples(st.integers(-40, 40), st.integers(-9, 9)).map(lambda r: f"{r[0]},{r[1]}"),
    st.tuples(st.integers(-40, 40), st.integers(-9, 9)).map(lambda r: f"  {r[0]} ,\t{r[1]}  "),
    st.sampled_from(["x y", "x,y", "", "   ", "# comment", "1 2 # trailing", "1 2 3",
                     "4", "oops 1", "1 oops", "inf 1", "-inf 2", "nan 3", "1 nan",
                     "5\x0c6", "1,,2", "1e3 2e-3", "0x10 1"]),
)


class TestTableParsePaths:
    """Chunks of plain data rows are parsed in bulk and everything else line
    by line; together they give the line-by-line parse's values and errors."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 512])
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(TABLE_LINES, max_size=14), crlf=st.booleans())
    def test_bulk_and_line_by_line_agree(self, chunk, lines, crlf):
        from unittest import mock

        from chebconvex import functions
        end = "\r\n" if crlf else "\n"
        text = end.join(lines) + end
        # A string is split by str.splitlines, a file is read line by line.
        sources = [(text, text.splitlines()),
                   (io.StringIO(text), [line.rstrip("\n") for line in io.StringIO(text)]),
                   ([line + "\n" for line in lines], lines)]
        with mock.patch.object(functions, "TABLE_CHUNK", chunk):
            for source, split in sources:
                assert same(parsed(source), line_by_line_table(split))

    @pytest.mark.parametrize("text, want", [
        ("x y\n# c\n0 0\n1 1\n", ([0.0, 1.0], [0.0, 1.0])),
        ("# c\nx,y\n\n0,0\r\n1,1\r\n\r\n2 , 4\n", ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])),
        ("2 4\n0 0\n1 1\n", ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])),
        ("0 0\n1 1\n0.0 2\n", ("duplicate abscissa 0.0 on lines 1 and 3", (1, 3))),
        ("0 0\n-0.0 2\n", ("duplicate abscissa 0.0 on lines 1 and 2", (1, 2))),
        ("0 0\ninf 1\n", ("line 2: non-finite abscissa inf", (2,))),
        ("0 0\n1 1 1\n", ("line 2: expected 2 columns, got 3", (2,))),
        ("x y\n0 0\nx y\n", ("line 3: non-numeric cell in 'x y'", (3,))),
    ])
    def test_cases(self, text, want):
        assert line_by_line_table(text.splitlines()) == want
        assert parsed(text) == want
        assert parsed(io.StringIO(text)) == want

    @pytest.mark.parametrize("bad, message", [
        (None, None),
        ("1 2 3", "line {n}: expected 2 columns, got 3"),
        ("oops 1", "line {n}: non-numeric cell in 'oops 1'"),
        ("nan 1", "line {n}: non-finite abscissa nan"),
        ("3.0 1", "duplicate abscissa 3.0 on lines 27 and {n}"),
    ])
    def test_tables_longer_than_a_chunk(self, bad, message):
        from chebconvex.functions import TABLE_CHUNK
        rows = [f"{x / 8!r} {x * x!r}" for x in range(3 * TABLE_CHUNK + 7)]
        lines = ["# x x^2", "x y", *rows]
        n = 2 * TABLE_CHUNK + 100
        if bad is not None:
            lines[n - 1] = bad
        want = line_by_line_table(lines)
        if bad is None:
            assert want[0] == [x / 8 for x in range(3 * TABLE_CHUNK + 7)]
        else:
            assert want == (message.format(n=n), (27, n) if "duplicate" in message else (n,))
        assert parsed("\n".join(lines)) == want
        assert parsed(io.StringIO("\n".join(lines) + "\n")) == want
