import math
import random
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import interpolation
from chebconvex import (ArgumentError, BasisFunction, CallableSource,
                        ChebyshevSystem, DegenerateInputError, DomainError,
                        Interval, NearSingularError, OmegaCombination,
                        SourceEvalError,
                        constrained_interpolate,
                        exponential_system, interpolate, lemma1_residual,
                        polynomial_system)

from conftest import (F_CUBE, F_EXP, FIXTURE_FUNCTIONS, draw_separated,
                      separated_points_strategy)


class TestInterpolate:
    def test_identity_line(self):
        omega = interpolate(polynomial_system(2), (0.0, 1.0), (0.0, 1.0))
        assert omega.coefficients == (0.0, 1.0)

    def test_quadratic_through_cube_values(self):
        omega = interpolate(polynomial_system(3), (0.0, 1.0, 2.0), (0.0, 1.0, 8.0))
        assert omega.coefficients == pytest.approx((0.0, -2.0, 3.0), abs=1e-12)
        for x in (0.0, 1.0, 2.0):
            assert omega(x) == pytest.approx(x ** 3, abs=1e-12)

    def test_basis_values_give_unit_vector(self):
        system = exponential_system((0.0, 1.0, 2.0))
        pts = (-0.5, 0.25, 1.0)
        for j, func in enumerate(system.basis):
            omega = interpolate(system, pts, [func(x) for x in pts])
            expected = [1.0 if i == j else 0.0 for i in range(3)]
            assert omega.coefficients == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(separated_points_strategy(3, sep=0.05), st.permutations(range(3)))
    def test_node_order_invariance(self, pts, perm):
        system = polynomial_system(3)
        values = [F_EXP(x) for x in pts]
        base = interpolate(system, pts, values).coefficients
        shuffled_pts = [pts[i] for i in perm]
        shuffled_vals = [values[i] for i in perm]
        again = interpolate(system, shuffled_pts, shuffled_vals).coefficients
        for a, b in zip(base, again):
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)

    def test_near_singular_collocation(self):
        system = ChebyshevSystem((BasisFunction("monomial", 0),
                                  BasisFunction("monomial", 2)))
        with pytest.raises(NearSingularError):
            interpolate(system, (-1.0, 1.0), (0.0, 0.0))

    def test_value_count_mismatch(self):
        with pytest.raises(ArgumentError):
            interpolate(polynomial_system(2), (0.0, 1.0), (1.0,))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ArgumentError, match="non-finite interpolation value"):
            interpolate(polynomial_system(2), (0.0, 1.0), [math.nan, 1.0])


class TestConstrained:
    def test_cube_fixture(self):
        omega = constrained_interpolate(polynomial_system(3), (0.0, 1.0), F_CUBE, 2.0)
        assert omega.coefficients == pytest.approx((0.0, -1.0, 2.0), abs=1e-12)
        # the combination is 2x^2 - x
        assert omega(2.0) == pytest.approx(6.0)

    def test_zero_pin_reduces_to_truncated_interpolation(self):
        system = polynomial_system(3)
        knots = (0.25, 1.5)
        omega = constrained_interpolate(system, knots, F_EXP, 0.0)
        truncated = interpolate(system.truncate(2), knots, [F_EXP(x) for x in knots])
        assert omega.coefficients[:2] == pytest.approx(truncated.coefficients)
        assert omega.coefficients[2] == 0.0

    def test_single_knot_tangent_intercept(self):
        omega = constrained_interpolate(polynomial_system(2), (0.0,), F_EXP, 1.0)
        assert omega.coefficients == pytest.approx((1.0, 1.0))

    def test_reproduces_f_at_knots(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.choice((2, 3, 4, 5))
            knots = draw_separated(rng, n - 1) if n > 1 else ()
            c_n = rng.uniform(-2.0, 2.0)
            f = rng.choice(FIXTURE_FUNCTIONS)
            omega = constrained_interpolate(polynomial_system(n), knots, f, c_n)
            assert omega.coefficients[-1] == c_n
            for k in knots:
                scale = max(1.0, abs(f(k)))
                assert abs(omega(k) - f(k)) <= 1e-9 * scale

    def test_needs_order_two(self):
        with pytest.raises(ArgumentError):
            constrained_interpolate(polynomial_system(1), (0.0,), F_CUBE, 1.0)

    @pytest.mark.parametrize("c_n", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_pin(self, c_n):
        with pytest.raises(ArgumentError, match="non-finite pinned coefficient"):
            constrained_interpolate(polynomial_system(2), (0.5,), lambda x: x * x, c_n)

    def test_nan_target_at_a_knot_raises(self):
        # A plain callable may return NaN; it is rejected where it is
        # evaluated, before any solve or residual check.
        with pytest.raises(SourceEvalError, match=r"^target function returned nan at x=0\.5$"):
            constrained_interpolate(polynomial_system(2), (0.5,), lambda x: math.nan, 1.0)

    def test_overflowing_node_equation_names_the_knot(self):
        # 1e308 times the last basis value 4.0 overflows; at 0.5 the same
        # pin solves.
        with pytest.raises(DomainError, match=r"is not finite at x=4\.0$"):
            constrained_interpolate(polynomial_system(2), (4.0,), lambda x: 1.0, 1e308)
        constrained_interpolate(polynomial_system(2), (0.5,), lambda x: 1.0, 1e308)


class TestDifferenceIdentity:
    def test_cube_fixture_at_two(self):
        system = polynomial_system(3)
        omega = constrained_interpolate(system, (0.0, 1.0), F_CUBE, 2.0)
        assert F_CUBE(2.0) - omega(2.0) == pytest.approx(2.0)
        assert lemma1_residual(system, (0.0, 1.0), F_CUBE, 2.0, 2.0) <= 1e-12

    def test_last_basis_function_with_unit_pin(self):
        system = polynomial_system(3)
        f = CallableSource(lambda x: x * x, "x^2")
        residual = lemma1_residual(system, (0.0, 1.0), f, 1.0, 1.7)
        omega = constrained_interpolate(system, (0.0, 1.0), f, 1.0)
        assert omega(1.7) == pytest.approx(f(1.7), abs=1e-12)
        assert residual <= 1e-12

    def test_exponential_fixture_random_points(self):
        rng = random.Random(5)
        system = exponential_system((0.0, 1.0, 2.0), Interval(-1.0, 1.0))
        knots = (-0.4, 0.3)
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0)
            if min(abs(x - k) for k in knots) < 1e-3:
                continue
            residual = lemma1_residual(system, knots, F_EXP, 0.7, x)
            omega = constrained_interpolate(system, knots, F_EXP, 0.7)
            scale = max(abs(F_EXP(x) - omega(x)), 1.0)
            assert residual <= 1e-9 * scale

    def test_rejects_knot_as_evaluation_point(self):
        with pytest.raises(DegenerateInputError):
            lemma1_residual(polynomial_system(3), (0.0, 1.0), F_CUBE, 2.0, 1.0)

    def test_unsorted_knots_accepted(self):
        a = lemma1_residual(polynomial_system(3), (1.0, 0.0), F_CUBE, 2.0, 2.5)
        assert a <= 1e-12


class TestEvaluation:
    def test_combination_evaluates_as_weighted_sum(self):
        system = exponential_system((0.0, 1.0))
        omega = interpolate(system, (0.0, 1.0), (2.0, 3.0))
        c1, c2 = omega.coefficients
        x = 0.37
        assert omega(x) == pytest.approx(c1 + c2 * math.exp(x))

    def test_describe_lists_terms(self):
        omega = interpolate(polynomial_system(2), (0.0, 1.0), (0.0, 1.0))
        assert "x" in omega.describe()


class TestOmegaValue:
    def test_equality_hash_and_immutability(self):
        system = polynomial_system(2)
        omega = OmegaCombination(system, (1.0, 2.0))
        same = OmegaCombination(ChebyshevSystem(system.basis, system.interval, "line"),
                                (1.0, 2.0))
        assert omega == same and hash(omega) == hash(same)
        assert omega != OmegaCombination(system, (1.0, 3.0))
        assert not isinstance(omega, tuple)
        for name in ("system", "coefficients"):
            with pytest.raises(AttributeError):
                setattr(omega, name, None)
        assert omega.coefficients == (1.0, 2.0)

    @pytest.mark.parametrize("coefficients", [(1.0,), (1.0, 2.0, 3.0)])
    def test_coefficient_count_must_match(self, coefficients):
        with pytest.raises(ArgumentError) as info:
            OmegaCombination(polynomial_system(2), coefficients)
        assert str(info.value) == "coefficient count must match the system order"


class TestAtRows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-1e3, 1e3) | st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.lists(st.floats(), min_size=n, max_size=n), max_size=6))))
    def test_equals_the_fsum_at_each_point(self, case):
        coefficients, cols = case
        omega = OmegaCombination(polynomial_system(len(coefficients)), tuple(coefficients))
        rows = list(zip(*cols)) or [()] * len(coefficients)
        xs = [float(i) for i in range(len(cols))]

        def one_at_a_time():
            values = []
            for col, x in zip(cols, xs):
                try:
                    value = math.fsum(map(mul, coefficients, col))
                except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
                    value = math.nan
                if not math.isfinite(value):
                    raise DomainError(f"combination {omega.describe()} is not finite at x={x!r}")
                values.append(value)
            return values

        def outcome(compute):
            try:
                return repr(compute())
            except DomainError as exc:  # a value that is not finite, at its point
                return str(exc)
        assert outcome(lambda: omega.at_rows(rows, xs)) == outcome(one_at_a_time)


class TestNodeResiduals:
    """The residual check at the nodes takes the basis and target values its
    caller evaluated there, rather than evaluating them again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counter of ``BasisFunction.__call__`` calls, by point."""
        counts = Counter()
        call = BasisFunction.__call__

        def counting(self, x):
            counts[x] += 1
            return call(self, x)

        monkeypatch.setattr(BasisFunction, "__call__", counting)
        return counts

    @pytest.fixture
    def checked(self, monkeypatch):
        """Arguments of every node-residual check."""
        seen = []
        check = interpolation._check_node_residuals

        def recording(omega, nodes, cols, targets):
            seen.append((omega, nodes, cols, targets))
            return check(omega, nodes, cols, targets)

        monkeypatch.setattr(interpolation, "_check_node_residuals", recording)
        return seen

    @staticmethod
    def assert_basis_values(omega, nodes, cols):
        """The check saw, bit for bit, the basis values at each node taken
        function by function, as it used to evaluate them itself."""
        calls_before = [[func(x) for func in omega.system.basis] for x in nodes]
        assert repr([list(c) for c in cols]) == repr(calls_before)

    def test_interpolate_evaluates_the_basis_once_per_node(self, calls, checked):
        system = polynomial_system(3)
        nodes = (-0.5, 0.0, 0.5)
        interpolate(system, nodes, [x ** 3 for x in nodes])
        assert calls == Counter({x: 3 for x in nodes})
        (omega, got_nodes, cols, targets), = checked
        assert list(got_nodes) == list(nodes)
        assert targets == [x ** 3 for x in nodes]
        self.assert_basis_values(omega, nodes, cols)

    def test_constrained_evaluates_basis_and_target_once_per_knot(self, calls, checked):
        system = exponential_system((0.0, 1.0, 2.0))
        knots = (-0.4, 0.7)
        f_calls = Counter()

        def f(x):
            f_calls[x] += 1
            return math.exp(1.5 * x)

        constrained_interpolate(system, knots, f, 2.5)
        assert calls == Counter({x: 3 for x in knots})
        assert f_calls == Counter({x: 1 for x in knots})
        (omega, got_nodes, cols, targets), = checked
        assert got_nodes == knots
        assert targets == [math.exp(1.5 * x) for x in knots]
        self.assert_basis_values(omega, knots, cols)
