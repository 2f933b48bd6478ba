import math
from collections import Counter

import pytest

from chebconvex import (CERTIFIED, VIOLATED, CallableSource, ExpressionSource,
                        GeometryError, Interval, LimitDivergedError,
                        OmegaCombination, PreconditionError, ResolutionError,
                        TableSource, build_support, certify_theorem_a,
                        classical_dd, constrained_interpolate, estimate_cn,
                        exponential_system, polynomial_system,
                        verify_sign_pattern)

from conftest import (F_CUBE, F_EXP, F_NEG_CUBE, F_SQUARE, assert_halving,
                      grid_on)


def cube_system():
    return polynomial_system(3, Interval(-2.0, 3.0))


class TestEstimateCn:
    def test_cube_fixture_converges_to_two(self):
        limit = estimate_cn(cube_system(), F_CUBE, (0.0, 1.0))
        assert limit.converged
        assert limit.monotone_ok
        assert limit.estimate == pytest.approx(2.0, abs=1e-6)
        assert_halving(limit.h_sequence)
        # the map value at (0, 1, 1+h) is the node sum 2 + h
        h0, v0 = limit.h_sequence[0]
        assert v0 == pytest.approx(2.0 + h0, rel=1e-9)
        # converged means the last two trace values actually agree
        last, previous = limit.h_sequence[-1][1], limit.h_sequence[-2][1]
        assert abs(last - previous) <= 1e-10 + 1e-8 * abs(last)
        assert limit.estimate == last

    def test_tangent_slope_of_exp(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        limit = estimate_cn(system, F_EXP, (0.0,))
        assert limit.converged and limit.monotone_ok
        assert limit.estimate == pytest.approx(1.0, abs=1e-5)

    def test_last_basis_function_is_exact_at_every_h(self):
        limit = estimate_cn(cube_system(), F_SQUARE, (0.0, 1.0))
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in limit.h_sequence)
        assert limit.estimate == pytest.approx(1.0, abs=1e-12)

    def test_h0_respects_room_to_the_right_end(self):
        system = polynomial_system(3, Interval(-2.0, 1.1))
        limit = estimate_cn(system, F_CUBE, (0.0, 1.0))
        assert limit.h_sequence[0][0] <= 0.05  # half the 0.1 of room
        assert limit.estimate == pytest.approx(2.0, abs=1e-6)

    def test_h0_override_and_geometry_error(self):
        limit = estimate_cn(cube_system(), F_CUBE, (0.0, 1.0), h0=0.01)
        assert limit.h_sequence[0][0] == 0.01
        with pytest.raises(GeometryError):
            estimate_cn(cube_system(), F_CUBE, (0.0, 1.0), h0=1e-12)

    def test_boundary_knot_rejected(self):
        system = polynomial_system(3, Interval(0.0, 2.0))
        with pytest.raises(PreconditionError):
            estimate_cn(system, F_CUBE, (0.0, 1.0))

    def test_h0_past_the_interval_rejected_before_any_evaluation(self, basis_calls):
        calls = []
        f = CallableSource(lambda x: calls.append(x) or x ** 3, "cube")
        with pytest.raises(GeometryError, match="outside"):
            estimate_cn(cube_system(), f, (0.0, 1.0), h0=5.0)
        with pytest.raises(GeometryError, match="outside"):
            estimate_cn(polynomial_system(2), f, (0.0,), h0=math.inf)
        # 1e8 + 2e-9 rounds to 1e8: the first point would be the knot itself.
        with pytest.raises(GeometryError, match="no room"):
            estimate_cn(polynomial_system(2), f, (1e8,), h0=2e-9)
        assert not calls and not basis_calls

    def test_basis_evaluated_once_per_knot_and_halving_point(self, basis_calls):
        limit = estimate_cn(cube_system(), F_CUBE, (0.0, 1.0))
        points = [1.0 + h for h, _ in limit.h_sequence]
        assert len(points) > 2
        assert basis_calls == Counter([0.0, 1.0] + points)

    def test_early_stop_states_the_halvings_made(self):
        # 4096 + h rounds to the knot once h reaches 2^-41, half its ulp, so
        # the halving stops unconverged after 30 of its 40 halvings.
        a = 4096.0
        system = exponential_system((0.0, 0.1))
        wiggle = CallableSource(
            lambda x: math.exp(0.1 * a) * (x - a) * math.sin(1.0 / (x - a)) if x != a
            else 0.0, "wiggle")
        with pytest.raises(LimitDivergedError, match="after 30 halvings") as info:
            estimate_cn(system, wiggle, (a,), h0=2.0 ** -10)
        assert len(info.value.diagnostics.h_sequence) == 31

    def test_oscillatory_target_diverges_with_trace(self):
        wild = CallableSource(
            lambda x: math.sin(1.0 / (x - 1.0)) if x != 1.0 else 0.0, "wild")
        with pytest.raises(LimitDivergedError) as info:
            estimate_cn(cube_system(), wild, (0.0, 1.0))
        trace = info.value.diagnostics
        assert trace is not None and not trace.converged
        assert len(trace.h_sequence) >= 30

    def test_monotone_limit_matches_classical_route(self):
        # independent route: the classical recurrence under the same halving
        def classical_limit(system, f, knots):
            h, prev, value = 0.01, None, None
            for _ in range(41):
                value = classical_dd(knots + (knots[-1] + h,), f)
                if prev is not None and abs(value - prev) <= 1e-10 + 1e-8 * abs(value):
                    break
                prev, h = value, h / 2.0
            return value

        limit = estimate_cn(cube_system(), F_CUBE, (0.0, 1.0))
        oracle = classical_limit(cube_system(), F_CUBE, (0.0, 1.0))
        assert limit.converged and limit.monotone_ok
        assert limit.estimate == pytest.approx(oracle, abs=1e-6)

        affine = polynomial_system(2, Interval(-1.0, 1.0))
        limit = estimate_cn(affine, F_EXP, (0.0,))
        oracle = classical_limit(affine, F_EXP, (0.0,))
        assert limit.converged and limit.monotone_ok
        assert limit.estimate == pytest.approx(oracle, abs=1e-6)

    def test_noise_floor_divergence_is_reported_not_fudged(self):
        # generic smooth fixture whose halving trace bottoms out just above
        # the convergence tolerance: the honest outcome is divergence with
        # the full trace attached
        system = polynomial_system(3, Interval(-1.0, 1.0))
        with pytest.raises(LimitDivergedError) as info:
            estimate_cn(system, F_EXP, (-0.3, 0.2))
        trace = info.value.diagnostics
        assert trace is not None and not trace.converged
        assert len(trace.h_sequence) == 41
        # the values still hover around the true one-sided limit
        values = [v for _, v in trace.h_sequence[-10:]]
        assert all(abs(v - 0.52047) < 1e-2 for v in values)


class TestTableGate:
    def _table_exp(self, fine_lo, fine_hi, fine_step, coarse_step=0.05):
        xs = sorted(set(
            [round(x * coarse_step, 10) for x in range(int(-1 / coarse_step),
                                                       int(1 / coarse_step) + 1)]
            + [round(fine_lo + i * fine_step, 12)
               for i in range(int((fine_hi - fine_lo) / fine_step) + 1)]))
        return TableSource(xs, [math.exp(x) for x in xs], interpolation="linear")

    def test_coarse_table_rejected(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        table = TableSource([x * 0.05 for x in range(-20, 21)],
                            [math.exp(x * 0.05) for x in range(-20, 21)],
                            interpolation="linear")
        with pytest.raises(ResolutionError):
            estimate_cn(system, table, (0.0,))

    def test_fine_table_accepted_and_near_true_slope(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        # h0 = 0.02, so the window [0, 0.02] must be sampled at <= 3.125e-4
        table = self._table_exp(0.0, 0.021, 2.5e-4)
        limit = estimate_cn(system, table, (0.0,))
        assert limit.converged
        assert limit.estimate == pytest.approx(1.0, abs=1e-3)

    def test_uncovered_window_rejected(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        table = TableSource([-1.0, -0.5, 0.0], [math.exp(x) for x in (-1, -0.5, 0)],
                            interpolation="linear")
        with pytest.raises(ResolutionError):
            estimate_cn(system, table, (0.0,))


class TestSignPattern:
    def test_cube_fixture_pattern(self):
        system = cube_system()
        omega = constrained_interpolate(system, (0.0, 1.0), F_CUBE, 2.0)
        report = verify_sign_pattern(system, F_CUBE, omega, (0.0, 1.0),
                                     grid_on(-2, 3, 100))
        assert report.overall
        assert [s.required_sign for s in report.segments] == [-1, 1, 1]
        assert all(not s.violations for s in report.segments)
        assert sum(s.points_checked for s in report.segments) + report.excluded == 100

    def test_equal_functions_pass_everywhere(self):
        system = cube_system()
        omega = OmegaCombination(system, (0.5, -1.0, 0.25))
        f = ExpressionSource("poly", (0.5, -1.0, 0.25))
        report = verify_sign_pattern(system, f, omega, (0.0, 1.0), grid_on(-2, 3, 50))
        assert report.overall

    def test_overshot_pin_violates_past_the_last_knot(self):
        # pinning the last coefficient at 2.5 instead of 2 makes the
        # difference x(x-1)(x-1.5), negative just right of the last knot
        system = cube_system()
        omega = constrained_interpolate(system, (0.0, 1.0), F_CUBE, 2.5)
        report = verify_sign_pattern(system, F_CUBE, omega, (0.0, 1.0),
                                     grid_on(-2, 3, 200))
        assert not report.overall
        assert not report.segments[0].violations
        assert not report.segments[1].violations
        bad = report.segments[2].violations
        assert bad
        assert all(1.0 < x < 1.5 for x, _ in bad)
        assert all(diff < 0 for _, diff in bad)

    def test_two_function_system_requires_support_below(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        omega = OmegaCombination(system, (1.0, 1.0))  # tangent at 0
        report = verify_sign_pattern(system, F_EXP, omega, (0.0,), grid_on(-1, 1, 60))
        assert report.overall
        assert [s.required_sign for s in report.segments] == [1, 1]

    def test_target_evaluated_once_per_checked_point(self):
        calls = Counter()

        def cube(x):
            calls[x] += 1
            return x ** 3

        system = cube_system()
        omega = constrained_interpolate(system, (0.0, 1.0), F_CUBE, 2.0)
        grid = grid_on(-2, 3, 101)
        report = verify_sign_pattern(system, CallableSource(cube), omega,
                                     (0.0, 1.0), grid)
        assert report.overall
        assert report.excluded == 2
        assert sum(calls[x] for x in grid) == len(grid) - report.excluded
        assert set(calls.values()) == {1}

    def test_refuses_a_grid_with_every_point_excluded(self):
        system = polynomial_system(2, Interval(0.0, 1.0))
        omega = OmegaCombination(system, (0.0, 1.0))
        with pytest.raises(PreconditionError, match="nothing was checked"):
            verify_sign_pattern(system, F_SQUARE, omega, (0.5,), [0.5, 0.50001])


class TestBuildSupport:
    def test_cube_fixture_end_to_end(self):
        result = build_support(cube_system(), F_CUBE, (0.0, 1.0), grid_on(-2, 3, 100))
        assert result.omega.coefficients == pytest.approx((0.0, -1.0, 2.0), abs=1e-6)
        assert result.c_n.converged and result.c_n.monotone_ok
        assert result.pattern.overall
        for k in (0.0, 1.0):
            assert result.omega(k) == pytest.approx(F_CUBE(k), abs=1e-9)

    def test_exp_tangent_line(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        result = build_support(system, F_EXP, (0.0,), grid_on(-1, 1, 60))
        assert result.omega.coefficients == pytest.approx((1.0, 1.0), abs=1e-5)
        assert result.pattern.overall
        for x in grid_on(-1, 1, 60):
            assert result.omega(x) <= F_EXP(x) + 1e-9

    def test_combination_target_reproduced_exactly(self):
        system = cube_system()
        f = ExpressionSource("poly", (2.0, 0.5, 0.0))
        result = build_support(system, f, (0.0, 1.0), grid_on(-2, 3, 40))
        assert result.omega.coefficients == pytest.approx((2.0, 0.5, 0.0), abs=1e-9)
        assert result.pattern.overall
        for seg in result.pattern.segments:
            assert not seg.violations

    def test_prechecks_evaluate_the_basis_once_per_grid_point(self, basis_calls,
                                                               monkeypatch):
        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        # Both prechecks run before the limit estimate, which stops the run.
        monkeypatch.setattr("chebconvex.support.estimate_cn", stop)
        grid = grid_on(-2, 3, 50)
        with pytest.raises(Stop):
            build_support(cube_system(), F_CUBE, (0.0, 1.0), grid)
        assert basis_calls == Counter(grid)

    def test_short_grid_rejected_before_basis_evaluation(self, basis_calls):
        from chebconvex import ArgumentError
        with pytest.raises(ArgumentError, match="grid has 2 points, need at least 3"):
            build_support(cube_system(), F_CUBE, (0.0, 1.0), [-1.0, 2.0])
        assert not basis_calls

    def test_nonpositive_system_precondition(self):
        from chebconvex import exponential_system
        # descending rates make the pair determinant negative on ordered tuples
        system = exponential_system((1.0, 0.0), Interval(-1.0, 1.0))
        with pytest.raises(PreconditionError):
            build_support(system, F_EXP, (0.0,), grid_on(-1, 1, 20))


class TestSupportCharacterization:
    def test_certified_target_passes_for_every_interior_knot_pair(self):
        system = polynomial_system(3, Interval(-1.0, 1.0))
        grid = grid_on(-1, 1, 9)
        assert certify_theorem_a(system, F_CUBE, grid).verdict == CERTIFIED
        interior = grid[1:-1]
        for i in range(len(interior)):
            for j in range(i + 1, len(interior)):
                result = build_support(system, F_CUBE,
                                       (interior[i], interior[j]), grid)
                assert result.pattern.overall, (interior[i], interior[j])

    def test_nonconvex_target_fails_some_knot_pair(self):
        system = polynomial_system(3, Interval(-1.0, 1.0))
        grid = grid_on(-1, 1, 9)
        assert certify_theorem_a(system, F_NEG_CUBE, grid).verdict == VIOLATED
        failures = 0
        interior = grid[1:-1]
        for i in range(len(interior)):
            for j in range(i + 1, len(interior)):
                try:
                    result = build_support(system, F_NEG_CUBE,
                                           (interior[i], interior[j]), grid)
                except LimitDivergedError:
                    failures += 1
                    continue
                if not result.pattern.overall:
                    failures += 1
        assert failures > 0
