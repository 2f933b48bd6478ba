import math
import random
from collections import Counter

import pytest

from chebconvex import (CERTIFIED, VIOLATED, CallableSource, DomainError,
                        ExpressionSource, GeometryError, Interval, LimitDivergedError,
                        NearSingularError, OmegaCombination, PreconditionError,
                        ResolutionError, SourceEvalError, TableSource, build_support,
                        certify_theorem_a, classical_dd,
                        constrained_interpolate, estimate_cn,
                        exponential_system, parse_system, polynomial_system,
                        verify_sign_pattern)
from chebconvex.divdiff import knot_map
from chebconvex.functions import function_row
from chebconvex.support import H0_FACTOR, LIMIT_SAMPLES

from conftest import (F_CUBE, F_EXP, F_NEG_CUBE, F_SQUARE, assert_halving,
                      grid_on)


def cube_system():
    return polynomial_system(3, Interval(-2.0, 3.0))


class TestEstimateCn:
    def test_target_evaluated_once_at_each_knot_and_point(self):
        calls = Counter()

        def cube(x):
            calls[x] += 1
            return x ** 3

        limit = estimate_cn(cube_system(), CallableSource(cube), (0.0, 1.0))
        assert calls[0.0] == calls[1.0] == 1
        assert sum(calls.values()) == len(limit.h_sequence) + 2 == LIMIT_SAMPLES + 2 == 8

    def test_raising_target_names_only_the_failing_point(self):
        def cube(x):
            if x > 1.0:
                raise ValueError("no value right of the last knot")
            return x ** 3

        with pytest.raises(SourceEvalError) as info:
            estimate_cn(cube_system(), cube, (0.0, 1.0))
        first = 1.0 + H0_FACTOR * 5.0
        assert str(info.value) == f"target function failed at x={first!r}"
        assert isinstance(info.value.__cause__, ValueError)

    def test_cube_fixture_converges_to_two(self):
        limit = estimate_cn(cube_system(), F_CUBE, (0.0, 1.0))
        assert limit.converged
        assert limit.monotone_ok
        assert limit.estimate == pytest.approx(2.0, abs=1e-6)
        assert_halving(limit.h_sequence)
        # the map value at (0, 1, 1+h) is the node sum 2 + h
        h0, v0 = limit.h_sequence[0]
        assert v0 == pytest.approx(2.0 + h0, rel=1e-9)
        # the map is exactly 2 + h, so the extrapolant to h = 0 is 2
        assert abs(limit.estimate - 2.0) <= 1e-12

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

    def test_h0_on_an_interval_with_no_right_end(self):
        # Infinite room leaves the span, capped at 1, to set h0.
        limit = estimate_cn(polynomial_system(2), F_EXP, (0.0,))
        assert limit.h_sequence[0][0] == H0_FACTOR * 1.0 == 0.01
        assert limit.estimate == pytest.approx(1.0, abs=1e-5)

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
        assert len(points) == LIMIT_SAMPLES
        assert basis_calls == Counter([0.0, 1.0] + points)

    def test_last_sample_rounding_to_the_knot_is_refused(self, basis_calls):
        # 1e8 + 1e-7 is a point of its own, but the last sample's h of
        # 1e-7/32 clears the minimum separation and is under half the ulp
        # of 1e8, so that sample would be the knot itself.
        f = CallableSource(lambda x: x ** 3, "cube")
        assert 1e8 + 1e-7 != 1e8 and 1e8 + 1e-7 / 32 == 1e8
        with pytest.raises(GeometryError, match="no room"):
            estimate_cn(polynomial_system(2), f, (1e8,), h0=1e-7)
        assert not basis_calls

    @pytest.mark.parametrize("system, f, knots", [
        (polynomial_system(2, Interval(-1.0, 1.0)), F_EXP, (0.0,)),
        (cube_system(), F_CUBE, (0.0, 1.0)),
        (exponential_system((0.0, 1.0, 2.0), Interval(-1.0, 1.0)), F_EXP, (-0.4, 0.3)),
    ], ids=["poly2", "poly3", "exp012"])
    def test_samples_are_theorem_2s_map_bit_for_bit(self, system, f, knots):
        limit = estimate_cn(system, f, knots)
        xs = [knots[-1] + h for h, _ in limit.h_sequence]
        values = knot_map(system, knots, f)(xs, function_row(f, xs), system.evaluate_rows(xs))
        assert [*map(float.hex, values)] == [v.hex() for _, v in limit.h_sequence]

    def test_truncation_at_the_knots_fails_before_any_sample(self, basis_calls):
        # (x, x, 1) is singular, and so is its truncation at the knots: that
        # is reported first, and the basis is evaluated at the knots only.
        system = parse_system("interval -1 1\nmonomial 1\nmonomial 1\nmonomial 0")
        with pytest.raises(NearSingularError, match=r"^truncated-system collocation "
                                                    r"determinant degenerated at \(-0\.5, 0\.5\)$"):
            estimate_cn(system, F_CUBE, (-0.5, 0.5))
        assert basis_calls == Counter([-0.5, 0.5])

    def test_wiggle_diverges_within_the_six_samples(self):
        a = 4096.0
        system = exponential_system((0.0, 0.1))
        wiggle = CallableSource(
            lambda x: math.exp(0.1 * a) * (x - a) * math.sin(1.0 / (x - a)) if x != a
            else 0.0, "wiggle")
        with pytest.raises(LimitDivergedError, match="no convergence") as info:
            estimate_cn(system, wiggle, (a,), h0=2.0 ** -10)
        trace = info.value.diagnostics
        assert not trace.converged and not trace.monotone_ok
        assert [h for h, _ in trace.h_sequence] == [2.0 ** -k for k in range(10, 16)]
        assert math.isfinite(trace.estimate)

    def test_extrapolant_past_the_float_range_is_an_error(self):
        # Each sample, f(h) / h at h = 2^-k, is a finite ±1.5e308 of
        # alternating sign, so their first differences overflow.
        jump = CallableSource(
            lambda x: x * 1.5e308 * (-1.0) ** round(-math.log2(x)) if x > 0.0 else 0.0,
            "jump")
        system = polynomial_system(2, Interval(-1.0, 1.0))
        with pytest.raises(DomainError, match="not all finite"):
            estimate_cn(system, jump, (0.0,), h0=2.0 ** -6)

    def test_oscillatory_target_diverges_with_trace(self):
        wild = CallableSource(
            lambda x: math.sin(1.0 / (x - 1.0)) if x != 1.0 else 0.0, "wild")
        with pytest.raises(LimitDivergedError) as info:
            estimate_cn(cube_system(), wild, (0.0, 1.0))
        trace = info.value.diagnostics
        assert trace is not None and not trace.converged
        assert len(trace.h_sequence) == LIMIT_SAMPLES == 6

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

    def test_exp_limit_is_the_confluent_divided_difference(self):
        # At the default tolerances; the limit is the divided difference of
        # e^x at (-0.3, 0.2, 0.2).
        system = polynomial_system(3, Interval(-1.0, 1.0))
        limit = estimate_cn(system, F_EXP, (-0.3, 0.2))
        slope = (math.exp(0.2) - math.exp(-0.3)) / 0.5
        exact = (math.exp(0.2) - slope) / 0.5
        assert exact == pytest.approx(0.5204673664, abs=1e-10)
        assert limit.converged and limit.monotone_ok
        assert abs(limit.estimate - exact) <= 1e-11 * exact

    def test_seeded_family_of_knot_pairs_matches_the_closed_forms(self):
        # c_n at knots (k1, k2) is the confluent divided difference at
        # (k1, k2, k2): k1 + 2 k2 for x^3, and for e^(wx) the slope at k2
        # less the chord slope, over k2 - k1.
        system = cube_system()
        rng = random.Random(0)
        pairs = [sorted((rng.uniform(-1.9, 2.9), rng.uniform(-1.9, 2.9)))
                 for _ in range(800)]
        pairs = [(k1, k2) for k1, k2 in pairs if k2 - k1 >= 1e-3]
        assert len(pairs) == 799
        for k1, k2 in pairs:
            w = rng.uniform(0.5, 2.0)
            chord = (math.exp(w * k2) - math.exp(w * k1)) / (k2 - k1)
            for f, exact in ((F_CUBE, k1 + 2.0 * k2),
                             (ExpressionSource("exp", (w,)),
                              (w * math.exp(w * k2) - chord) / (k2 - k1))):
                limit = estimate_cn(system, f, (k1, k2))
                assert limit.converged and limit.monotone_ok, (k1, k2, w)
                assert abs(limit.estimate - exact) <= 1e-8 * abs(exact), (k1, k2, w)


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

    @pytest.mark.parametrize("knot", [0.0, 1e-4])
    def test_samples_stay_on_the_first_linear_piece(self, knot):
        # After the gate on [k, k + 0.02], the samples start at the next
        # abscissa, 2.5e-4: each is the slope of the piece [0, 2.5e-4].
        system = polynomial_system(2, Interval(-1.0, 1.0))
        limit = estimate_cn(system, self._table_exp(0.0, 0.021, 2.5e-4), (knot,))
        slope = (math.exp(2.5e-4) - 1.0) / 2.5e-4
        assert limit.h_sequence[0][0] == pytest.approx(2.5e-4 - knot, rel=1e-12)
        assert all(v == pytest.approx(slope, rel=1e-9) for _, v in limit.h_sequence)
        assert limit.converged and limit.estimate == pytest.approx(slope, rel=1e-9)

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
        grid = grid_on(-2, 3, 100)
        report = verify_sign_pattern(system, F_CUBE, omega, (0.0, 1.0), grid)
        assert report.overall
        assert [s.required_sign for s in report.segments] == [-1, 1, 1]
        assert all(not s.violations for s in report.segments)
        assert sum(s.points_checked for s in report.segments) + report.excluded == 100

    def test_equal_functions_pass_everywhere(self):
        system = cube_system()
        omega = OmegaCombination(system, (0.5, -1.0, 0.25))
        f = ExpressionSource("poly", (0.5, -1.0, 0.25))
        grid = grid_on(-2, 3, 50)
        report = verify_sign_pattern(system, f, omega, (0.0, 1.0), grid)
        assert report.overall

    def test_overshot_pin_violates_past_the_last_knot(self):
        # pinning the last coefficient at 2.5 instead of 2 makes the
        # difference x(x-1)(x-1.5), negative just right of the last knot
        system = cube_system()
        omega = constrained_interpolate(system, (0.0, 1.0), F_CUBE, 2.5)
        grid = grid_on(-2, 3, 200)
        report = verify_sign_pattern(system, F_CUBE, omega, (0.0, 1.0), grid)
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
        grid = grid_on(-1, 1, 60)
        report = verify_sign_pattern(system, F_EXP, omega, (0.0,), grid)
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
            grid = [0.5, 0.50001]
            verify_sign_pattern(system, F_SQUARE, omega, (0.5,), grid)


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
