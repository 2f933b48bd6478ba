import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, CallableSource, ExpressionSource,
                        Interval, NearSingularError, classical_dd,
                        exponential_system, gdd, polynomial_system,
                        recurrence_identity_residual, v_det)

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
