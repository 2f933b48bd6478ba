import bisect
import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, BasisFunction, CallableSource,
                        ChebConvexError, DomainError, ExpressionSource, ResolutionError, SourceEvalError,
                        TableFormatError, TableSource, load_table,
                        parse_function)
from chebconvex.functions import FORMS, TABLE_SNAP_FACTOR


def _horner(x, coeffs):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _exp(a, x):
    """e^(a x), and an overflow where a * x itself is +inf, whose exp
    math.exp would give as inf without an error."""
    if a * x == math.inf:
        raise OverflowError("math range error")
    return math.exp(a * x)


#: Each closed form at one point, as an expression in x: the reference that
#: the forms' evaluators over sequences of points must match bit for bit.
POINTWISE_FORMS = {
    "monomial": lambda p: lambda x, k=int(p[0]): x ** k,
    "negmonomial": lambda p: lambda x, k=int(p[0]): -(x ** k),
    "exp": lambda p: lambda x, a=p[0]: _exp(a, x),
    "cos": lambda p: math.cos,
    "sin": lambda p: math.sin,
    "const": lambda p: lambda x, c=p[0]: c,
    "poly": lambda p: lambda x: _horner(x, p),
}

#: Points where float operations differ most: signed zeros, subnormals,
#: the largest floats, infinities and NaN, among ordinary ones.
EDGE_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                     1.0, -1.0, 1e100, -1e100, 1e154, -1e300, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.floats(-3.0, 3.0), st.floats())

FORM_PARAMS = st.one_of(
    st.tuples(st.sampled_from(["monomial", "negmonomial"]), st.integers(0, 8).map(lambda k: (k,))),
    st.tuples(st.just("exp"), st.tuples(st.one_of(st.floats(-800.0, 800.0),
                                                  st.floats(allow_nan=False, allow_infinity=False)))),
    st.tuples(st.sampled_from(["cos", "sin"]), st.just(())),
    st.tuples(st.just("const"), st.tuples(st.floats(allow_nan=False, allow_infinity=False))),
    st.tuples(st.just("poly"),
              st.lists(st.floats(-1e10, 1e10), min_size=1, max_size=5).map(tuple)),
)


def hexes(evaluate):
    """The float.hex of every value ``evaluate()`` gives, so that -0.0 and
    NaN count, or the type and message of what it raises."""
    try:
        return [v.hex() if isinstance(v, float) else repr(v) for v in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


class TestFormEvaluators:
    """Each form's one evaluator over a sequence of points gives, bit for
    bit, what its expression gives at each point alone, and raises what the
    first failing point raises."""

    @settings(max_examples=400, deadline=None)
    @given(FORM_PARAMS, st.lists(EDGE_POINTS, max_size=10))
    @example(("exp", (1e300,)), [1.0, 2e8])  # a * x overflows to +inf
    @example(("exp", (-1.0,)), [0.0, -math.inf])
    def test_equals_the_expression_at_each_point(self, form_params, xs):
        form, params = form_params
        params = tuple(map(float, params))
        reference = POINTWISE_FORMS[form](params)
        assert hexes(lambda: FORMS[form][1](params)(xs)) == \
            hexes(lambda: [reference(x) for x in xs])

    def test_every_form_is_covered(self):
        assert set(POINTWISE_FORMS) == set(FORMS)

    @pytest.mark.parametrize("k", range(9))
    def test_powers_keep_signed_zeros_subnormals_and_overflow(self, k):
        xs = [-0.0, 0.0, 5e-324, -5e-324, -1.5, 1e154, -1e300]
        for form in ("monomial", "negmonomial"):
            reference = POINTWISE_FORMS[form]((k,))
            assert hexes(lambda: FORMS[form][1]((k,))(xs)) == \
                hexes(lambda: [reference(x) for x in xs])

    @settings(max_examples=200, deadline=None)
    @given(FORM_PARAMS.filter(lambda fp: fp[0] != "poly"), EDGE_POINTS)
    def test_one_point_paths(self, form_params, x):
        """A basis function and a target at one point: the evaluator over
        that one point, with each one's error for an overflow."""
        form, params = form_params
        reference = POINTWISE_FORMS[form](tuple(map(float, params)))
        try:
            want = reference(x)
        except OverflowError:
            with pytest.raises(DomainError, match=f"overflowed at x={re.escape(repr(x))}$"):
                BasisFunction(form, *params)(x)
            with pytest.raises(SourceEvalError, match=f"failed at x={re.escape(repr(x))}$"):
                ExpressionSource(form, params)(x)
            return
        except ValueError as exc:  # cos and sin of an infinity
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                BasisFunction(form, *params)(x)
            with pytest.raises(SourceEvalError, match=f"failed at x={re.escape(repr(x))}$"):
                ExpressionSource(form, params)(x)
            return
        assert hexes(lambda: [BasisFunction(form, *params)(x)]) == hexes(lambda: [want])
        if math.isfinite(want):
            assert hexes(lambda: [ExpressionSource(form, params)(x)]) == hexes(lambda: [want])

    @pytest.mark.parametrize("form, params", [("monomial", (3,)), ("negmonomial", (2,)),
                                              ("exp", (2,)), ("cos", ()), ("sin", ()),
                                              ("const", (1.5,)), ("poly", (1, -2, 0.5))])
    def test_a_point_that_is_not_a_float(self, form, params):
        """A Fraction point gives what the expression gives there: ``a * x``
        falls back to the Fraction's reflected product."""
        x = Fraction(1, 2)
        want = hexes(lambda: [POINTWISE_FORMS[form](tuple(map(float, params)))(x)])
        assert hexes(lambda: [ExpressionSource(form, params)(x)]) == want
        if form != "poly":
            assert hexes(lambda: [BasisFunction(form, *params)(x)]) == want

    def test_a_long_poly(self):
        """100,000 coefficients: Horner's rule keeps the bits of the
        per-point loop, and its depth does not grow with the count."""
        coeffs = tuple((-1.0) ** i / (i + 1) for i in range(100_000))
        xs = [-1.0, -0.5, 0.0, 0.999, 1.0]
        f = ExpressionSource("poly", coeffs)
        want = hexes(lambda: [_horner(x, coeffs) for x in xs])
        assert hexes(lambda: f.values(xs)) == want
        assert hexes(lambda: [f(x) for x in xs]) == want


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=15, unique=True),
           st.data())
    def test_max_spacing_matches_the_pairwise_loop(self, cells, data):
        # Abscissae on a coarse lattice, so that lo and hi often fall on one.
        xs = sorted(c / 4 for c in cells)
        f = TableSource(xs, [0.0] * len(xs))
        bound = st.one_of(st.sampled_from(xs), st.integers(-42, 42).map(lambda c: c / 4),
                          st.floats(-11, 11))
        lo, hi = data.draw(bound), data.draw(bound)
        if xs[0] > lo or xs[-1] < hi:
            with pytest.raises(ResolutionError, match="table covers"):
                f.max_spacing_within(lo, hi)
            return
        worst = 0.0
        for a, b in zip(xs, xs[1:]):
            if b > lo and a < hi:
                worst = max(worst, b - a)
        assert f.max_spacing_within(lo, hi) == worst

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.floats(-5, 5, allow_nan=False)),
                    min_size=1, max_size=12, unique_by=lambda t: t[0]))
    def test_round_trip_reproduces_ordinates(self, rows):
        text = "\n".join(f"{x}, {y!r}" for x, y in rows)
        f = load_table(text)
        for x, y in rows:
            assert f(float(x)) == y


def reference_table_eval(f, x):
    """A table's value at one point as its rows define it: the row within
    the snapping window of x, the left one tested first, else the line
    between the neighbouring rows."""
    i = bisect.bisect_left(f.xs, x)
    snap = TABLE_SNAP_FACTOR * (f.xs[-1] - f.xs[0] if len(f.xs) > 1 else max(abs(f.xs[0]), 1.0))
    for j in (i - 1, i):
        if 0 <= j < len(f.xs) and abs(f.xs[j] - x) <= snap:
            return f.ys[j]
    if f.interpolation == "none":
        raise ResolutionError(f"x={x!r} is not a table abscissa and interpolation is off")
    if x < f.xs[0] or x > f.xs[-1]:
        raise DomainError(f"x={x!r} outside table range [{f.xs[0]:g}, {f.xs[-1]:g}]")
    x0, x1, y0, y1 = f.xs[i - 1], f.xs[i], f.ys[i - 1], f.ys[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


TABLES = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=30, unique=True).flatmap(
    lambda xs: st.tuples(st.just(sorted(xs)),
                         st.lists(st.floats(allow_nan=False), min_size=len(xs), max_size=len(xs)),
                         st.sampled_from(["none", "linear"])))


class TestTableValues:
    """A table's ``values`` over a sequence of points is its ``_eval`` at
    each point, and the reference, bit for bit, with the first failing
    point's error."""

    def check(self, f, xs):
        want = hexes(lambda: [reference_table_eval(f, x) for x in xs])
        assert hexes(lambda: f.values(xs)) == want
        assert hexes(lambda: [f._eval(x) for x in xs]) == want

    @settings(max_examples=200, deadline=None)
    @given(TABLES, st.data())
    def test_exact_hits(self, table, data):
        xs, ys, interpolation = table
        f = TableSource(xs, ys, interpolation)
        self.check(f, data.draw(st.lists(st.sampled_from(xs), min_size=1)))

    @settings(max_examples=200, deadline=None)
    @given(TABLES, st.lists(st.one_of(st.floats(-120.0, 120.0), st.sampled_from([-0.0, 0.0])),
                            max_size=20), st.booleans())
    def test_off_grid_points(self, table, points, start_on_a_row):
        xs, ys, interpolation = table
        f = TableSource(xs, ys, interpolation)
        self.check(f, ([xs[0]] if start_on_a_row else []) + points)

    @pytest.mark.parametrize("interpolation", ["none", "linear"])
    def test_adjacent_abscissae_within_the_snap(self, interpolation):
        # The span is 2, so rows closer than 2e-12 snap to the one on the left.
        f = TableSource([0.0, 1e-13, 1.0, 1.0 + 1e-12, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                        interpolation)
        xs = [0.0, 1e-13, 1.0, 1.0 + 1e-12, 2.0, 1.0 + 5e-13]
        assert f.values(xs) == [1.0, 1.0, 3.0, 3.0, 5.0, 3.0]
        self.check(f, xs)
        self.check(f, xs[::-1])

    def test_span_past_the_largest_float(self):
        # The snapping window is infinite: every point snaps to a row.
        f = TableSource([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0])
        self.check(f, [0.0, 1e308, -1e308, 5.0, -math.inf, math.inf])


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
    """A string, a file and a list of lines all give the line-by-line
    oracle's values and errors."""

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(TABLE_LINES, max_size=14), crlf=st.booleans())
    def test_agrees_with_the_line_by_line_oracle(self, lines, crlf):
        end = "\r\n" if crlf else "\n"
        text = end.join(lines) + end
        # A string is split by str.splitlines, a file is read line by line.
        sources = [(text, text.splitlines()),
                   (io.StringIO(text), [line.rstrip("\n") for line in io.StringIO(text)]),
                   ([line + "\n" for line in lines], lines)]
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
    def test_long_tables(self, bad, message):
        rows = [f"{x / 8!r} {x * x!r}" for x in range(1543)]
        lines = ["# x x^2", "x y", *rows]
        n = 1124
        if bad is not None:
            lines[n - 1] = bad
        want = line_by_line_table(lines)
        if bad is None:
            assert want[0] == [x / 8 for x in range(1543)]
        else:
            assert want == (message.format(n=n), (27, n) if "duplicate" in message else (n,))
        assert parsed("\n".join(lines)) == want
        assert parsed(io.StringIO("\n".join(lines) + "\n")) == want
