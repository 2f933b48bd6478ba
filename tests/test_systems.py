import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, BasisFunction, ChebyshevSystem, DomainError,
                        GeometryError, Interval, SystemClassification, classify_on_grid,
                        cosine_sine_system, exponential_system, named_system,
                        negated_polynomial_system, parse_system,
                        polynomial_system, uniform_grid)
from chebconvex.determinants import (Windows, det_and_scale, exact_sign, minor_scan,
                                     sign_of, window_sweep)
from chebconvex.sampling import ordered_index_tuples
from chebconvex.systems import structural_sign, validate_grid

from conftest import det_bruteforce, draw_separated, grid_on, minor_rows


def mixed_signs(n: int, c: float) -> ChebyshevSystem:
    """(x, c, x^2, ..., x^(n-1)): on a grid around 0 the windows of x alone
    change sign, while from order 2 on every minor has the sign of -c."""
    return ChebyshevSystem((BasisFunction("monomial", 1), BasisFunction("const", c),
                            *(BasisFunction("monomial", k) for k in range(2, n))))


class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            Interval(1.0, 1.0)
        with pytest.raises(ArgumentError):
            Interval(2.0, -1.0)

    def test_membership(self):
        iv = Interval(0.0, 1.0, lo_open=True)
        assert iv.contains(0.0) and iv.contains(1.0)
        assert not iv.admits(0.0)
        assert iv.admits(1.0)
        assert not iv.interior_contains(1.0)
        assert iv.interior_contains(0.5)

    def test_unbounded_forced_open_and_span_cap(self):
        iv = Interval(0.0, math.inf)
        assert iv.hi_open
        assert iv.tolerance_span == 1.0
        assert Interval(-2.0, 3.0).tolerance_span == 5.0


class TestValueSemantics:
    """The constructed types compare, hash and check as frozen values of
    their constructor's arguments, and are not tuples."""

    def test_systems_differing_only_in_name_are_equal(self):
        cut = polynomial_system(3).truncate(2)
        other = ChebyshevSystem(polynomial_system(2).basis, cut.interval, "other")
        assert (cut.name, other.name) == ("poly:3[:2]", "other")
        assert cut == other and hash(cut) == hash(other)
        assert cut != polynomial_system(2, Interval(0.0, 1.0))
        assert cut != ChebyshevSystem(cut.basis[:1], cut.interval)

    def test_basis_equality_ignores_the_bound_evaluator(self):
        a, b = BasisFunction("exp", 2.0), BasisFunction("exp", 2.0)
        assert a.values is not b.values
        assert a == b and hash(a) == hash(b)
        assert BasisFunction("monomial", 2) == BasisFunction("monomial", 2.0)
        assert a != BasisFunction("exp", 3.0) and a != BasisFunction("const", 2.0)

    def test_interval_equality_takes_every_field(self):
        assert Interval(0.0, 1.0) == Interval(0.0, 1.0)
        assert hash(Interval(0.0, 1.0)) == hash(Interval(0.0, 1.0))
        assert Interval(0.0, 1.0) != Interval(0.0, 1.0, lo_open=True)
        assert Interval(0.0, 1.0) != (0.0, 1.0, False, False)

    @pytest.mark.parametrize("value, name", [
        (Interval(0.0, 1.0), "lo"), (Interval(0.0, 1.0), "hi_open"),
        (BasisFunction("exp", 1.0), "param"), (BasisFunction("exp", 1.0), "values"),
        (polynomial_system(2), "basis"), (polynomial_system(2), "name"),
        (SystemClassification("positive", None, 1, "exhaustive"), "verdict"),
        (SystemClassification("positive", None, 1, "exhaustive"), "witness"),
    ])
    def test_attributes_cannot_be_assigned(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0.5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    def test_copies_and_pickles_are_equal_values(self):
        system = ChebyshevSystem((BasisFunction("exp", 1.5), BasisFunction("cos")),
                                 Interval(0.0, math.inf), "named")
        result = SystemClassification("non-chebyshev", (0.0, 1.0), 2, "sampled")
        for value in (system, system.interval, system.basis[0], result):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert twin == value and repr(twin) == repr(value)
        rebuilt = pickle.loads(pickle.dumps(system))
        assert rebuilt.name == "named" and rebuilt.evaluate_basis(0.5) == system.evaluate_basis(0.5)

    def test_not_tuples(self):
        system = polynomial_system(2)
        for value in (system, system.interval, system.basis[0]):
            assert not isinstance(value, tuple)
            with pytest.raises(TypeError):
                len(value)

    def test_infinite_endpoints_are_open(self):
        iv = Interval(-math.inf, math.inf, lo_open=False, hi_open=False)
        assert (iv.lo_open, iv.hi_open) == (True, True)
        assert iv == Interval() and not iv.admits(-math.inf)
        assert Interval(-math.inf, 0.0).lo_open and not Interval(-math.inf, 0.0).hi_open

    @pytest.mark.parametrize("build, message", [
        (lambda: Interval(math.nan, 1.0), "interval endpoints must not be NaN"),
        (lambda: Interval(0.0, math.nan), "interval endpoints must not be NaN"),
        (lambda: Interval(1.0, 1.0), "empty interval: lo=1.0 must be < hi=1.0"),
        (lambda: Interval(2.0, -1.0), "empty interval: lo=2.0 must be < hi=-1.0"),
        (lambda: BasisFunction("wavelet"), "unknown basis kind 'wavelet'"),
        (lambda: BasisFunction("poly", 2.0), "unknown basis kind 'poly'"),
        (lambda: BasisFunction("cos", 1.0), "cos takes no parameter"),
        (lambda: ChebyshevSystem(()), "a system needs at least one basis function"),
        (lambda: SystemClassification("non-chebyshev", None, 3, "exhaustive"),
         "non-chebyshev verdict requires a witness tuple"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(ArgumentError) as info:
            build()
        assert str(info.value) == message


class TestUniformGrid:
    def test_endpoints_closed(self):
        iv = Interval(-1.0, 1.0)
        grid = uniform_grid(iv, 5)
        assert grid[0] == -1.0 and grid[-1] == 1.0
        assert len(grid) == 5

    def test_open_endpoints_get_inset(self):
        iv = Interval(0.0, math.pi, lo_open=True, hi_open=True)
        grid = uniform_grid(iv, 9)
        assert grid[0] > 0.0 and grid[-1] < math.pi
        assert grid[0] == pytest.approx(1e-6 * math.pi, rel=1e-9)

    def test_unbounded_requires_bounds(self):
        with pytest.raises(GeometryError):
            uniform_grid(Interval(), 10)
        grid = uniform_grid(Interval(), 10, lo=-1.0, hi=1.0)
        assert len(grid) == 10

    def test_bounds_must_fit_interval(self):
        with pytest.raises(ArgumentError):
            uniform_grid(Interval(0.0, 1.0), 10, lo=-0.5, hi=1.0)

    @pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.0, 0.0)])
    def test_bounds_out_of_order_named_before_any_inset(self, lo, hi):
        # The real line insets nothing, so "collapsed" would mislead.
        with pytest.raises(ArgumentError,
                           match=rf"^grid bounds need lo < hi, got lo={lo!r}, hi={hi!r}$"):
            uniform_grid(Interval(), 5, lo, hi)

    def test_bounds_collapsed_by_inset(self):
        with pytest.raises(GeometryError, match="collapsed after endpoint inset"):
            uniform_grid(Interval(0.0, 1.0, True, True), 5, 0.0, 1e-6)

    def test_span_past_the_float_range_is_named(self):
        # (b - a) overflows to inf, so the step is not finite and would give
        # the points nan and inf.
        with pytest.raises(GeometryError, match=r"^grid bounds \[-1e\+308, 1e\+308\] span "
                                                r"more than a float holds$"):
            uniform_grid(Interval(), 3, -1e308, 1e308)
        assert uniform_grid(Interval(), 3, -1e308, 0.0) == [-1e308, -5e307, 0.0]


class TestBasisEvaluation:
    def test_poly3_at_two(self):
        assert polynomial_system(3).evaluate_basis(2.0) == (1.0, 2.0, 4.0)

    def test_exp_rates_0_1_at_zero(self):
        assert exponential_system((0.0, 1.0)).evaluate_basis(0.0) == (1.0, 1.0)

    def test_cos_sin_at_half_pi(self):
        c, s = cosine_sine_system().evaluate_basis(math.pi / 2)
        assert abs(c) < 1e-15
        assert s == 1.0

    def test_outside_interval_is_domain_error(self):
        with pytest.raises(DomainError):
            polynomial_system(2, Interval(0.0, 1.0)).evaluate_basis(2.0)

    def test_values_finite_on_finite_interval(self):
        system = exponential_system((-3.0, 0.0, 2.0), Interval(-5.0, 5.0))
        for x in grid_on(-5.0, 5.0, 21):
            assert all(math.isfinite(v) for v in system.evaluate_basis(x))

    def test_bad_kinds_rejected(self):
        with pytest.raises(ArgumentError):
            BasisFunction("tan")
        with pytest.raises(ArgumentError):
            BasisFunction("monomial", -1)
        with pytest.raises(ArgumentError):
            BasisFunction("monomial", 1.5)
        with pytest.raises(ArgumentError, match="unknown basis kind 'poly'"):
            BasisFunction("poly", 1.0)
        with pytest.raises(ArgumentError, match="cos takes no parameter"):
            BasisFunction("cos", 1.0)
        # int() of an infinite or NaN power used to raise OverflowError or ValueError.
        for kind, param in [("monomial", math.inf), ("negmonomial", math.nan),
                            ("monomial", -math.inf), ("exp", math.nan),
                            ("const", math.inf), ("sin", math.nan)]:
            with pytest.raises(ArgumentError):
                BasisFunction(kind, param)

    def test_overflow_is_domain_error(self):
        system = exponential_system((1000.0,), Interval(0.0, 1.0))
        with pytest.raises(DomainError, match=r"^basis exp\(1000x\) overflowed at x=1\.0$"):
            system.evaluate_basis(1.0)
        assert system.evaluate_basis(0.0) == (1.0,)


def outcome(evaluate):
    """The float.hex of every value ``evaluate()`` returns, so that -0.0
    and NaN count, or the type and message of what it raises."""
    try:
        return [tuple(v.hex() for v in col) for col in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


BASIS_FUNCTIONS = st.one_of(
    st.builds(BasisFunction, st.sampled_from(["monomial", "negmonomial"]),
              st.integers(0, 7).map(float)),
    st.builds(BasisFunction, st.just("exp"), st.floats(-900, 900)),
    st.builds(BasisFunction, st.sampled_from(["cos", "sin"])),
    st.builds(BasisFunction, st.just("const"), st.floats(-1e300, 1e300)),
)
INTERVALS = st.sampled_from([Interval(), Interval(-1.0, 1.0),
                             Interval(0.0, math.pi, lo_open=True, hi_open=True),
                             Interval(-2.0, 3.0, hi_open=True)])


#: Basis functions whose values overflow at large points: exp at rates up
#: to the largest floats, where a * x itself can overflow, and high powers.
OVERFLOWING_BASIS = st.one_of(
    st.builds(BasisFunction, st.just("exp"),
              st.sampled_from([1e300, -1e300, 1e10, -0.5])
              | st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(BasisFunction, st.sampled_from(["monomial", "negmonomial"]),
              st.integers(0, 300).map(float)),
)
LARGE_POINTS = (st.sampled_from([-1e300, -2e8, -1.0, 0.0, 2.0, 1e9, 1e300,
                                 1.7976931348623157e308])
                | st.floats(allow_nan=False, allow_infinity=False))


class TestEvaluateGrid:
    """``evaluate_grid`` is ``evaluate_basis`` point by point, in bulk."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(OVERFLOWING_BASIS, min_size=1, max_size=3),
           st.lists(LARGE_POINTS, min_size=1, max_size=8))
    def test_no_value_that_is_not_finite(self, basis, xs):
        """Every basis value that reaches a determinant is finite; otherwise
        the grid raises the DomainError that the first point where
        ``evaluate_basis`` raises one raises there."""
        system = ChebyshevSystem(tuple(basis))
        try:
            cols = system.evaluate_grid(xs)
        except DomainError as exc:
            first = None
            for x in xs:
                try:
                    system.evaluate_basis(x)
                except DomainError as per_point:
                    first = str(per_point)
                    break
            assert str(exc) == first
        else:
            assert all(math.isfinite(v) for col in cols for v in col)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(BASIS_FUNCTIONS, min_size=1, max_size=5), INTERVALS,
           st.lists(st.one_of(st.floats(-1.5, 1.5), st.floats()), max_size=12))
    def test_equals_point_by_point_evaluation(self, basis, interval, xs):
        system = ChebyshevSystem(tuple(basis), interval)
        assert outcome(lambda: system.evaluate_grid(xs)) == \
            outcome(lambda: [system.evaluate_basis(x) for x in xs])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(BASIS_FUNCTIONS, min_size=1, max_size=5), INTERVALS,
           st.lists(st.one_of(st.floats(-1.5, 1.5), st.floats()), max_size=12))
    def test_rows_are_the_columns_transposed(self, basis, interval, xs):
        system = ChebyshevSystem(tuple(basis), interval)

        def point_by_point():
            cols = [system.evaluate_basis(x) for x in xs]
            return list(zip(*cols)) if cols else [()] * system.n

        assert outcome(lambda: system.evaluate_rows(xs)) == outcome(point_by_point)

    def test_every_form_bit_for_bit(self):
        system = ChebyshevSystem((BasisFunction("monomial", 3), BasisFunction("negmonomial", 2),
                                  BasisFunction("exp", -1.5), BasisFunction("cos"),
                                  BasisFunction("sin"), BasisFunction("const", -0.0)))
        xs = [-2.5, -0.0, 0.0, 1e-310, 0.1, 3.0]
        cols = system.evaluate_grid(xs)
        assert outcome(lambda: cols) == outcome(lambda: [system.evaluate_basis(x) for x in xs])
        assert all(type(col) is tuple for col in cols)
        assert math.copysign(1.0, cols[1][1]) == -1.0  # -(0.0 ** 2) is -0.0

    def test_overflow_names_the_first_failing_point(self):
        system = exponential_system((0.0, 800.0), Interval(-1.0, 1.0))
        xs = grid_on(-1.0, 1.0, 41)
        with pytest.raises(DomainError) as per_point:
            [system.evaluate_basis(x) for x in xs]
        assert str(per_point.value) == "basis exp(800x) overflowed at x=0.9000000000000001"
        with pytest.raises(DomainError) as bulk:
            system.evaluate_grid(xs)
        assert str(bulk.value) == str(per_point.value)

    @pytest.mark.parametrize("kind, name", [("monomial", "x^3"), ("negmonomial", "-x^3")])
    def test_power_overflow_names_the_first_failing_point(self, kind, name):
        system = ChebyshevSystem(tuple(BasisFunction(kind, k) for k in (0, 1, 3)))
        xs = [-2.0, 1e100, 1e103, -1e200]
        with pytest.raises(DomainError) as per_point:
            [system.evaluate_basis(x) for x in xs]
        assert str(per_point.value) == f"basis {name} overflowed at x=1e+103"
        with pytest.raises(DomainError) as bulk:
            system.evaluate_grid(xs)
        assert str(bulk.value) == str(per_point.value)

    def test_point_outside_before_an_overflow(self):
        system = exponential_system((800.0,), Interval(-1.0, 1.0))
        with pytest.raises(DomainError, match=r"^x=1\.5 outside interval \[-1, 1\]$"):
            system.evaluate_grid([0.0, 1.5, 0.95])
        with pytest.raises(DomainError, match="overflowed at x=0.95"):
            system.evaluate_grid([0.0, 0.95, 1.5])
        # min and max pass over a NaN that is not first.
        with pytest.raises(DomainError, match=r"^x=nan outside"):
            system.evaluate_grid([0.0, math.nan, 0.5])

    def test_empty(self):
        assert polynomial_system(3).evaluate_grid([]) == []


def reference_validate_grid(system, grid, minimum):
    """The grid checks point by point: every pair, then every point."""
    pts = [float(x) for x in grid]
    if len(pts) < minimum:
        raise ArgumentError(f"grid has {len(pts)} points, need at least {minimum}")
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ArgumentError("grid must be strictly increasing")
    for x in pts:
        if not system.interval.admits(x):
            raise DomainError(f"grid point {x!r} outside {system.interval.describe()} "
                              "(open endpoints excluded)")
    return pts


class TestValidateGrid:
    @settings(max_examples=300, deadline=None)
    @given(INTERVALS, st.lists(st.one_of(st.floats(-3.5, 3.5), st.floats(),
                                         st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0, math.pi]),
                                         st.integers(-4, 4)), max_size=8),
           st.integers(0, 3), st.booleans())
    def test_same_result_and_errors_as_point_by_point(self, interval, grid, minimum, ordered):
        if ordered:
            grid = sorted(set(grid), key=float)
        system = ChebyshevSystem((BasisFunction("monomial", 1),), interval)

        def run(check):
            try:
                return [x.hex() for x in check(system, grid, minimum)]
            except Exception as exc:
                return type(exc), str(exc)

        assert run(validate_grid) == run(reference_validate_grid)

    def test_names_the_first_point_outside(self):
        system = polynomial_system(2, Interval(0.0, 1.0, hi_open=True))
        with pytest.raises(DomainError, match=r"^grid point 2\.0 outside \[0, 1\) "):
            validate_grid(system, [0.5, 2.0, 3.0], 2)
        with pytest.raises(DomainError, match=r"^grid point 1\.0 outside"):
            validate_grid(system, [0.0, 0.5, 1.0], 2)
        with pytest.raises(ArgumentError, match="strictly increasing"):
            validate_grid(system, [2.0, 0.5, 0.5], 2)


class TestTruncate:
    def test_drops_trailing_functions(self):
        system = polynomial_system(3)
        cut = system.truncate(2)
        assert [b.describe() for b in cut.basis] == ["1", "x"]
        assert cut.interval == system.interval

    def test_cos_sin_to_cos(self):
        cut = cosine_sine_system().truncate(1)
        assert [b.describe() for b in cut.basis] == ["cos"]

    def test_negated_pair_to_negated_constant(self):
        cut = negated_polynomial_system(2).truncate(1)
        assert [b.describe() for b in cut.basis] == ["-1"]

    def test_out_of_range(self):
        system = polynomial_system(3)
        with pytest.raises(ArgumentError):
            system.truncate(0)
        with pytest.raises(ArgumentError):
            system.truncate(4)

    @given(m=st.integers(1, 5), k=st.integers(1, 5))
    def test_idempotent_composition(self, m, k):
        system = polynomial_system(5)
        if k <= m:
            assert system.truncate(m).truncate(k) == system.truncate(k)


def basis_of(kind, params):
    return ChebyshevSystem(tuple(BasisFunction(kind, p) for p in params))


class TestStructuralSign:
    """The sign that the basis tuple alone gives every collocation
    determinant at increasing points, against exact oracles at random
    increasing grids, and None for every other basis."""

    SIGNS = {1: "+", -1: "-"}

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("kind, unit", [("monomial", 1), ("negmonomial", -1)])
    def test_powers_against_exact_rational_evaluation(self, kind, unit, k):
        rng = random.Random(k)
        for _ in range(10):
            powers = rng.sample(range(k), k)
            system = basis_of(kind, powers)
            grid = sorted({rng.uniform(-3.0, 3.0) for _ in range(k + 2)})
            for t in itertools.combinations(grid, k):
                det = det_bruteforce([[unit * Fraction(x) ** p for x in t] for p in powers])
                assert structural_sign(system) == self.SIGNS[(det > 0) - (det < 0)], (powers, t)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exp_against_the_exact_sign_on_separated_grids(self, k):
        rng = random.Random(k)
        for _ in range(10):
            system = exponential_system(rng.sample([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], k))
            cols = system.evaluate_grid(draw_separated(rng, k + 2, -2.0, 2.0, sep=0.2))
            for t in itertools.combinations(cols, k):
                assert structural_sign(system) == self.SIGNS[exact_sign(t)], system.name

    def test_named_families_and_their_truncations(self):
        assert [structural_sign(polynomial_system(4).truncate(m)) for m in (1, 2, 3, 4)] == [
            "+"] * 4
        assert [structural_sign(negated_polynomial_system(4).truncate(m))
                for m in (1, 2, 3, 4)] == ["-", "+", "-", "+"]
        assert structural_sign(exponential_system((0.0, 1.0, 2.0))) == "+"
        assert structural_sign(exponential_system((1.0, 0.0))) == "-"

    def test_a_system_file_counts_as_its_family(self):
        assert structural_sign(parse_system("monomial 1\nmonomial 0\nmonomial 2\n")) == "-"
        assert structural_sign(parse_system("negmonomial 0\nnegmonomial 1\n")) == "+"
        assert structural_sign(parse_system("exp 2\nexp 0.5\nexp -1\n")) == "-"

    @pytest.mark.parametrize("system", [
        cosine_sine_system(), named_system("cos"), basis_of("const", (1.0,)),
        basis_of("exp", (1.0, 1.0)), basis_of("monomial", (0.0, 2.0)),
        basis_of("monomial", (1.0,)), parse_system("monomial 0\nexp 1\n"),
        parse_system("monomial 0\nnegmonomial 1\n")],
        ids=["cossin", "cos", "const", "duplicate-rates", "powers-0-2", "power-1",
             "mixed-file", "mixed-signs-file"])
    def test_other_bases_are_undecided(self, system):
        assert structural_sign(system) is None


class TestClassify:
    def test_monomials_positive(self):
        result = classify_on_grid(polynomial_system(3), grid_on(-1, 1, 20))
        assert result.verdict == "positive"
        assert result.witness is None

    def test_cos_alone_is_not_chebyshev(self):
        system = cosine_sine_system().truncate(1)
        grid = uniform_grid(system.interval, 41)
        assert any(x < math.pi / 2 for x in grid)
        assert any(x > math.pi / 2 for x in grid)
        result = classify_on_grid(system, grid)
        assert result.verdict == "non-chebyshev"
        assert result.witness is not None
        # the sign flip is discovered within one grid step of pi/2
        spacing = grid[1] - grid[0]
        assert abs(result.witness[0] - math.pi / 2) <= spacing * (1 + 1e-12)

    def test_negated_constant_is_negative(self):
        result = classify_on_grid(negated_polynomial_system(1), grid_on(-1, 1, 10))
        assert result.verdict == "negative"

    def test_negated_pair_is_positive(self):
        result = classify_on_grid(negated_polynomial_system(2), grid_on(-1, 1, 10))
        assert result.verdict == "positive"

    def test_cos_sin_positive_on_its_interval(self):
        system = cosine_sine_system()
        result = classify_on_grid(system, uniform_grid(system.interval, 15))
        assert result.verdict == "positive"

    def test_needs_enough_points(self):
        with pytest.raises(ArgumentError):
            classify_on_grid(polynomial_system(3), [0.0, 1.0])

    def test_grid_must_increase(self):
        with pytest.raises(ArgumentError):
            classify_on_grid(polynomial_system(2), [0.0, 1.0, 0.5])

    def test_refinement_keeps_positive_verdict(self):
        system = polynomial_system(3)
        coarse = grid_on(-1, 1, 10)
        fine = sorted(set(coarse) | set(grid_on(-0.97, 0.93, 17)))
        assert classify_on_grid(system, coarse).verdict == "positive"
        assert classify_on_grid(system, fine).verdict == "positive"

    def test_refinement_never_undiscovers_violation(self):
        system = cosine_sine_system().truncate(1)
        grid = uniform_grid(system.interval, 21)
        refined = sorted(set(grid) | set(uniform_grid(system.interval, 40)))
        assert classify_on_grid(system, grid).verdict == "non-chebyshev"
        assert classify_on_grid(system, refined).verdict == "non-chebyshev"

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 400), min_size=4, max_size=9, unique=True))
    def test_vandermonde_always_positive(self, idx):
        # lattice spacing 5e-3 on [-1, 1] keeps separation >= 1e-3
        grid = sorted(-1.0 + i * 5e-3 for i in idx)
        result = classify_on_grid(polynomial_system(4), grid)
        assert result.verdict == "positive"

    def test_budget_subsampling_is_deterministic(self):
        system = polynomial_system(3)
        grid = grid_on(-1, 1, 60)  # C(60, 3) = 34220 > budget
        a = classify_on_grid(system, grid, budget=500, seed=11)
        b = classify_on_grid(system, grid, budget=500, seed=11)
        assert a == b
        assert a.verdict == "positive"
        # Every order's windows keep one sign: the windows decide every tuple.
        assert (a.coverage, a.tuples_checked) == ("windows", 60 - 3 + 1)
        # x changes sign on the grid, so the windows of (x) alone do not keep
        # one, and (x, -1, x^2) is classified from the sample.
        mixed = mixed_signs(3, -1.0)
        c = classify_on_grid(mixed, grid, budget=500, seed=11)
        assert c == classify_on_grid(mixed, grid, budget=500, seed=11)
        assert c.verdict == "positive"
        assert (c.coverage, c.tuples_checked) == ("sampled", 500)

    def test_windows_only_scan(self):
        system = polynomial_system(3)
        grid = grid_on(-1, 1, 25)
        cols = [system.evaluate_basis(x) for x in grid]
        levels = list(window_sweep(cols, system.n))
        assert [len(signs) for signs in levels] == [25, 24, 25 - 3 + 1]
        for k in range(1, system.n + 1):
            assert Windows(cols, system.n).first_failing(k) == ("+", None)

    def test_sampled_scan_matches_sampler_order_reference(self):
        """Sampled classifications scan the sorted sample, but report the first
        failing tuple in sampler order, with its position as the count."""
        self.check_sampled_scans()

    def test_read_ahead_scan_matches_sampler_order_reference(self, monkeypatch):
        """The verdict does not depend on the kernel drawing one tuple per
        minor: a kernel that draws one tuple ahead reports the same ones."""
        from chebconvex import systems

        def read_ahead_scan(vecs, tuples):
            tuples = iter(tuples)
            ahead = next(tuples, None)
            while ahead is not None:
                t, ahead = ahead, next(tuples, None)
                yield next(minor_scan(vecs, [t]))

        monkeypatch.setattr(systems, "minor_scan", read_ahead_scan)
        self.check_sampled_scans()

    @staticmethod
    def check_sampled_scans():
        def reference(system, grid, budget, seed):
            cols = [system.evaluate_basis(x) for x in grid]
            tuples = ordered_index_tuples(len(grid), system.n, budget=budget, seed=seed)
            first = None
            for checked, t in enumerate(tuples, 1):
                sign = sign_of(*det_and_scale(minor_rows(cols, t, system.n)))
                if sign == "0":  # the exact sign of the evaluated floats
                    sign = "0+-"[exact_sign([cols[j] for j in t]) or 0]
                if sign == "0" or (first is not None and sign != first):
                    return "non-chebyshev", tuple(grid[j] for j in t), checked
                first = sign
            return ("positive" if first == "+" else "negative"), None, len(tuples)

        rng = random.Random(2024)
        wide = Interval(0.0, 2 * math.pi, lo_open=False, hi_open=True)
        verdicts, past_windows = set(), 0
        for case in range(60):
            kind = case % 4
            if kind == 0:
                system, m = cosine_sine_system(wide), rng.randint(8, 40)
                grid = uniform_grid(wide, m, 0.0, rng.uniform(math.pi + 0.3, 6.2))
            elif kind == 1:
                system, m = cosine_sine_system(wide).truncate(1), rng.randint(4, 30)
                grid = uniform_grid(wide, m, rng.uniform(0.0, 1.0), rng.uniform(2.0, 6.0))
            else:
                n = rng.randint(2, 4)
                system, m = mixed_signs(n, 1.0 if kind == 2 else -1.0), rng.randint(n + 3, 16)
                grid = grid_on(-1, 1, m)
            budget = rng.randint(1, math.comb(m, system.n) - 1)
            seed = rng.randrange(1000)
            want = reference(system, grid, budget, seed)
            got = classify_on_grid(system, grid, budget=budget, seed=seed)
            assert got.coverage == "sampled"
            assert repr((got.verdict, got.witness, got.tuples_checked)) == repr(want)
            verdicts.add(want[0])
            past_windows += want[0] == "non-chebyshev" and want[2] > m - system.n + 1
        assert verdicts == {"positive", "negative", "non-chebyshev"}
        assert past_windows >= 5

    def test_grid_on_open_endpoint_rejected(self):
        system = cosine_sine_system()  # (0, pi) open
        with pytest.raises(DomainError):
            classify_on_grid(system, [0.0, 1.0, 2.0])


class TestTextFormat:
    TEXT = """
    # quadratic system on a closed box
    interval -2 3 closed closed
    monomial 0
    monomial 1
    monomial 2
    """

    def test_parse_round_trip(self):
        system = parse_system(self.TEXT)
        assert system.n == 3
        assert system.interval == Interval(-2.0, 3.0)
        assert system.evaluate_basis(2.0) == (1.0, 2.0, 4.0)

    def test_parse_open_flags_and_inf(self):
        system = parse_system("interval 0 inf open\nexp 0\nexp 1.5\n")
        assert system.interval.lo_open and system.interval.hi_open
        assert math.isinf(system.interval.hi)

    def test_parse_cos_sin_const(self):
        system = parse_system("interval 0 3.14159 open open\ncos\nsin\nconst 2.5\n")
        assert [b.describe() for b in system.basis] == ["cos", "sin", "2.5"]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ArgumentError, match="line 2"):
            parse_system("interval 0 1\nfourier 3\n")
        with pytest.raises(ArgumentError):
            parse_system("interval 0 1\n")  # no basis functions

    @pytest.mark.parametrize("line, message", [
        ("monomial inf", "monomial parameter inf is not finite"),
        ("monomial 1e400", "monomial parameter inf is not finite"),
        ("negmonomial nan", "negmonomial parameter nan is not finite"),
        ("monomial 2.5", "monomial power must be an integer >= 0"),
        ("monomial", "monomial takes exactly one parameter"),
        ("exp 1 2", "exp takes exactly one parameter"),
        ("cos 1", "cos takes no parameter"),
        ("cos 0", "cos takes no parameter"),
        # The count is checked before any token is read as a number.
        ("monomial x y", "monomial takes exactly one parameter"),
        ("sin x", "sin takes no parameter"),
        ("monomial x", "could not convert string to float: 'x'"),
        ("poly 1", "unknown directive 'poly'"),
    ])
    def test_bad_basis_line(self, line, message):
        with pytest.raises(ArgumentError, match=rf"^line 3: {message}$"):
            parse_system(f"interval 0 1\nmonomial 0\n{line}\n")

    def test_second_interval_line_rejected(self):
        # The second line used to win silently: this file classified on [5, 6].
        with pytest.raises(ArgumentError,
                           match=r"^line 2: second interval line \(the first is line 1\)$"):
            parse_system("interval 0 1\ninterval 5 6\nmonomial 0\nmonomial 1\n")

    def test_named_systems(self):
        assert named_system("poly:3").n == 3
        assert named_system("exp:0,1,2").n == 3
        assert named_system("negpoly:2").n == 2
        assert named_system("cossin").n == 2
        with pytest.raises(ArgumentError):
            named_system("spline:3")
        with pytest.raises(ArgumentError):
            named_system("poly:0")
