import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, CallableSource, DomainError, ExpressionSource,
                        Interval, NearSingularError, TableSource, classical_dd,
                        exponential_system, gdd, parse_system, polynomial_system,
                        recurrence_identity_residual, v_det)
from chebconvex.determinants import solve_with_det
from chebconvex.divdiff import knot_map
from chebconvex.functions import function_row

from conftest import (F_CUBE, F_EXP, F_SQUARE, FIXTURE_FUNCTIONS, draw_separated,
                      exp_rates, relgap, separated_points_strategy)


class TestClassical:
    def test_single_point_is_value(self):
        assert classical_dd((5.0,), F_CUBE) == 125.0

    def test_square_over_two_points(self):
        assert classical_dd((0.0, 1.0), F_SQUARE) == 1.0

    def test_cube_over_three_points(self):
        # recurrence: ((8-1)/1 - 1)/2 = 3
        assert classical_dd((0.0, 1.0, 2.0), F_CUBE) == 3.0

    def test_cube_dd_is_node_sum(self):
        rng = random.Random(3)
        for _ in range(25):
            pts = draw_separated(rng, 3)
            assert classical_dd(pts, F_CUBE) == pytest.approx(sum(pts), rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(separated_points_strategy(4, sep=0.05), st.permutations(range(4)))
    def test_permutation_invariance(self, pts, perm):
        base = classical_dd(pts, F_EXP)
        shuffled = tuple(pts[i] for i in perm)
        assert relgap(classical_dd(shuffled, F_EXP), base) <= 1e-10


class TestGdd:
    def test_monomial_reduces_to_classical(self):
        value = gdd(polynomial_system(3), (0.0, 1.0, 2.0), F_CUBE).value
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_last_basis_function_gives_one(self):
        assert gdd(polynomial_system(3), (0.0, 1.0, 2.0),
                   F_SQUARE).value == pytest.approx(1.0)
        system = exponential_system((0.0, 1.0))
        assert gdd(system, (-0.3, 0.4), F_EXP).value == pytest.approx(1.0)

    def test_order_one_system(self):
        system = exponential_system((0.0,), Interval(-1.0, 1.0))
        assert gdd(system, (0.25,), F_EXP).value == pytest.approx(math.exp(0.25))

    def test_earlier_basis_functions_give_zero(self):
        system = polynomial_system(4)
        for k in (0, 1, 2):
            f = ExpressionSource("monomial", (k,))
            assert gdd(system, (0.0, 0.7, 1.3, 2.0), f).value == 0.0

    def test_classical_reduction_random(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.choice((2, 3, 4, 5))
            pts = draw_separated(rng, n)
            f = rng.choice(FIXTURE_FUNCTIONS)
            g = gdd(polynomial_system(n), pts, f).value
            c = classical_dd(pts, f)
            assert relgap(g, c) <= 1e-8

    @settings(max_examples=30, deadline=None)
    @given(separated_points_strategy(3, sep=0.05), st.permutations(range(3)))
    def test_symmetry(self, pts, perm):
        system = polynomial_system(3)
        base = gdd(system, pts, F_EXP).value
        shuffled = tuple(pts[i] for i in perm)
        assert relgap(gdd(system, shuffled, F_EXP).value, base) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(separated_points_strategy(3, sep=0.05),
           st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    def test_linearity(self, pts, a, b):
        system = polynomial_system(3)
        combined = CallableSource(lambda x: a * F_CUBE(x) + b * F_EXP(x))
        lhs = gdd(system, pts, combined).value
        rhs = a * gdd(system, pts, F_CUBE).value + b * gdd(system, pts, F_EXP).value
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    def test_conditioning_positive_and_flagging(self):
        system = polynomial_system(3)
        healthy = gdd(system, (0.0, 1.0, 2.0), F_CUBE)
        assert healthy.conditioning > 0
        assert not healthy.ill_conditioned
        tight = gdd(system, (0.0, 1.0, 1.0 + 2e-9), F_CUBE)
        assert tight.ill_conditioned
        for pts in ((0.0, 1.0, 2.0), (2.0, -0.5, 1.0)):
            v = v_det(system, pts)
            assert gdd(system, pts, F_CUBE).conditioning == abs(v.value) / v.scale

    def test_near_singular_names_the_determinant(self):
        # (1, x^2) is singular at symmetric points: both columns match.
        from chebconvex import BasisFunction, ChebyshevSystem
        system = ChebyshevSystem((BasisFunction("monomial", 0),
                                  BasisFunction("monomial", 2)))
        with pytest.raises(NearSingularError, match="full-system"):
            gdd(system, (-1.0, 1.0), F_CUBE)
        # (x, 1): nonsingular at (0, 1), but the truncation (x) degenerates
        # at the first sorted point 0.
        system = ChebyshevSystem((BasisFunction("monomial", 1),
                                  BasisFunction("monomial", 0)))
        with pytest.raises(NearSingularError, match="truncated-system"):
            gdd(system, (0.0, 1.0), F_CUBE)
        # Unsorted points: the truncation is checked at the smallest point.
        with pytest.raises(NearSingularError, match=r"truncated-system .* at \(0\.0,\)"):
            gdd(system, (1.0, 0.0), F_CUBE)

    def test_wrong_arity(self):
        with pytest.raises(ArgumentError):
            gdd(polynomial_system(3), (0.0, 1.0), F_CUBE)


class TestOverflow:
    """A divided difference of finite values that overflows is an error
    naming its points, not a result."""

    T3 = TableSource([0.0, 1.0], [-1.7e308, 1.7e308])

    def test_gdd(self):
        with pytest.raises(DomainError, match=r"^divided difference inf at \(0\.0, 1\.0\) "
                                              r"is not finite$"):
            gdd(polynomial_system(2), (0.0, 1.0), self.T3)

    def test_classical(self):
        with pytest.raises(DomainError, match=r"^divided difference inf at \(0\.0, 1\.0\) "
                                              r"is not finite$"):
            classical_dd((0.0, 1.0), self.T3)
        # Both first differences are inf, and inf - inf is NaN.
        with pytest.raises(DomainError, match=r"^divided difference nan at \(0\.0, 0\.5, 1\.0\) "):
            classical_dd((0.0, 0.5, 1.0), TableSource([0.0, 0.5, 1.0], [-1e308, 0.0, 1e308]))


def map_at(system, knots, f, xs):
    """knot_map's values at the points xs, evaluated in one call."""
    return knot_map(system, knots, f)(xs, function_row(f, xs), system.evaluate_rows(xs))


class TestKnotMap:
    """Lemma 1's evaluator at fixed knots against gdd's determinant ratio,
    which computes the same divided difference by an independent formula."""

    ON = Interval(-1.0, 1.0)
    # Each target's divided differences are positive (e^x w.r.t. powers,
    # e^(3x) w.r.t. exp:0,1,2 is y^3 w.r.t. (1, y, y^2) in y = e^x), so a
    # relative bound has no cancellation to absorb.
    CASES = [(polynomial_system(2, ON), F_EXP),
             (polynomial_system(3, ON), F_EXP),
             (polynomial_system(4, ON), F_EXP),
             (exponential_system((0.0, 1.0, 2.0), ON), ExpressionSource("exp", (3.0,)))]

    @pytest.mark.parametrize("system, f", CASES, ids=["poly2", "poly3", "poly4", "exp012"])
    def test_matches_gdd_on_both_sides_of_the_knots(self, system, f):
        # Points at least 0.05 apart in [-0.95, 0.95]: each formula keeps
        # all but a few digits there (worst seen 5e-13 relative, poly:4).
        rng = random.Random(2024)
        for side in range(system.n):  # x left of the first knot, ..., right of the last
            for _ in range(40):
                pts = list(draw_separated(rng, system.n, lo=-0.95, hi=0.95))
                x = pts.pop(side)
                knots = tuple(pts)
                value, = map_at(system, knots, f, [x])
                want = gdd(system, knots + (x,), f).value
                assert abs(value - want) <= 1e-10 * abs(want), (knots, x)

    def test_values_do_not_depend_on_the_other_points(self):
        # Ascending points, as theorem 2's scan passes them, and points
        # right of the last knot in descending order, as the support
        # limit's samples: the same bits as one point at a time.
        system, knots = polynomial_system(3, self.ON), (-0.2, 0.4)
        for xs in ([-0.95, -0.7, 0.1, 0.6, 0.9], [0.9, 0.6, 0.45]):
            values = map_at(system, knots, F_EXP, xs)
            assert values == [map_at(system, knots, F_EXP, [x])[0] for x in xs]

    def test_order_two_is_the_chord_slope(self):
        # n = 2: one knot, and the Lagrange function of the truncation is 1.
        system = polynomial_system(2, self.ON)
        values = map_at(system, (0.25,), F_SQUARE, [-0.75, 0.75])
        assert values == [pytest.approx(-0.5, rel=1e-15), pytest.approx(1.0, rel=1e-15)]

    @pytest.mark.parametrize("basis, knots, x, message", [
        ("monomial 0\nmonomial 2", (0.5,), -0.5,
         "full-system collocation determinant degenerated at (-0.5, 0.5)"),
        # Left of the last knot: the truncation (1, x^2) at (-0.3, 0.3).
        ("monomial 0\nmonomial 2\nmonomial 3", (-0.3, 0.6), 0.3,
         "truncated-system collocation determinant degenerated at (-0.3, 0.3)"),
    ])
    def test_degeneracies_at_a_point_named_as_gdd_names_them(self, basis, knots, x,
                                                             message):
        system = parse_system("interval -1 1\n" + basis)
        with pytest.raises(NearSingularError) as err:
            map_at(system, knots, F_CUBE, [x])
        assert str(err.value) == message
        with pytest.raises(NearSingularError) as err:
            gdd(system, sorted(knots + (x,)), F_CUBE)
        assert str(err.value) == message

    def test_truncation_at_the_knots_is_tested_before_any_point(self):
        # (x, x, 1): the full system and its truncation are both singular.
        # gdd tests the full determinant first; the map tests the truncation
        # at the knots once, before it is given any point.
        system = parse_system("interval -1 1\nmonomial 1\nmonomial 1\nmonomial 0")
        with pytest.raises(NearSingularError, match=r"^truncated-system .* at \(-0\.5, 0\.5\)$"):
            knot_map(system, (-0.5, 0.5), F_CUBE)
        with pytest.raises(NearSingularError, match=r"^full-system .* at \(-0\.5, 0\.5, 0\.9\)$"):
            gdd(system, (-0.5, 0.5, 0.9), F_CUBE)

    def test_truncation_at_the_knots_takes_the_scale_of_gdd(self):
        # At the knots 0 and 1, (e^(-23x), e^(-22.999999x)) has determinant
        # 1.03e-16. The solve's scale is gdd's, a product over the functions,
        # 1, where a product over the knots would be 1e-10 and pass it; the
        # solve's refusal is the map's.
        system = exponential_system((-23.0, -22.999999, 1.0), Interval(-1.0, 2.0))
        heads = [system.truncate(2).evaluate_basis(x) for x in (0.0, 1.0)]
        with pytest.raises(NearSingularError, match=r"<= tau=1\.421e-14\)$"):
            solve_with_det(heads, [0.0, 1.0])
        with pytest.raises(NearSingularError, match=r"^truncated-system .* at \(0\.0, 1\.0\)$"):
            knot_map(system, (0.0, 1.0), F_CUBE)

    def test_value_that_is_not_finite_names_the_sorted_points(self):
        # The chord slope of finite values overflows: (-1.7e308 - 1.7e308) / -1.
        system = polynomial_system(2, Interval(0.0, 1.0))
        message = r"^divided difference inf at \(0\.0, 1\.0\) is not finite$"
        with pytest.raises(DomainError, match=message):
            map_at(system, (1.0,), TestOverflow.T3, [0.0])
        with pytest.raises(DomainError, match=message):
            gdd(system, (0.0, 1.0), TestOverflow.T3)


class TestRecurrenceIdentity:
    def test_affine_square_fixture(self):
        # both sides equal 2 by the classical recurrence:
        # [1,2; x^2] - [0,1; x^2] = 3 - 1, and the determinant side is
        # 2 * 1 / (1 * 1).
        system = polynomial_system(2)
        assert classical_dd((1.0, 2.0), F_SQUARE) - classical_dd((0.0, 1.0), F_SQUARE) == 2.0
        residual = recurrence_identity_residual(system, (0.0, 1.0, 2.0), F_SQUARE)
        assert residual <= 1e-14

    def test_f_in_span_gives_zero_sides(self):
        system = polynomial_system(3)
        pts = (0.0, 0.5, 1.25, 2.0)
        # f in the span of the full basis: both windows report the same
        # leading coefficient, the difference and the residual vanish.
        f = ExpressionSource("poly", (1.0, -2.0, 0.5))
        assert gdd(system, pts[1:], f).value == pytest.approx(0.5, abs=1e-12)
        assert gdd(system, pts[:3], f).value == pytest.approx(0.5, abs=1e-12)
        assert recurrence_identity_residual(system, pts, f) <= 1e-12
        # f in the span of the truncated basis: both sides are zero.
        affine = ExpressionSource("poly", (1.0, -2.0))
        assert gdd(system, pts[:3], affine).value == pytest.approx(0.0, abs=1e-14)
        assert recurrence_identity_residual(system, pts, affine) <= 1e-13

    def test_exponential_system_random(self):
        rng = random.Random(31)
        system = exponential_system((0.0, 1.0), Interval(0.0, 1.0))
        for _ in range(40):
            pts = draw_separated(rng, 3, lo=0.0, hi=1.0, sep=0.05)
            residual = recurrence_identity_residual(system, pts, F_SQUARE)
            assert residual <= 1e-9

    def test_mixed_systems_random(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            system = (polynomial_system(n) if rng.random() < 0.5
                      else exponential_system(exp_rates(n)))
            pts = draw_separated(rng, n + 1)
            f = rng.choice(FIXTURE_FUNCTIONS)
            assert recurrence_identity_residual(system, pts, f) <= 1e-9

    def test_requires_order_two(self):
        system = polynomial_system(1)
        with pytest.raises(ArgumentError):
            recurrence_identity_residual(system, (0.0, 1.0), F_CUBE)
