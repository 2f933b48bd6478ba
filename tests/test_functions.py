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
