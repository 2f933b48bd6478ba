import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, BasisFunction, DomainError,
                        GeometryError, Interval, classify_on_grid,
                        cosine_sine_system, exponential_system, named_system,
                        negated_polynomial_system, parse_system,
                        polynomial_system, uniform_grid)
from chebconvex.determinants import det_and_scale, sign_of
from chebconvex.sampling import ordered_index_tuples
from chebconvex.systems import classify_columns

from conftest import grid_on, minor_rows


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
        assert a.tuples_checked == 500

    def test_windows_only_scan(self):
        system = polynomial_system(3)
        grid = grid_on(-1, 1, 25)
        cols = [system.evaluate_basis(x) for x in grid]
        result = classify_columns(grid, cols, system.n, windows_only=True)
        assert result.verdict == "positive"
        assert result.tuples_checked == 25 - 3 + 1

    def test_sampled_scan_matches_sampler_order_reference(self):
        """Sampled classifications scan the sorted sample, but report the first
        failing tuple in sampler order, with its position as the count."""

        def reference(system, grid, budget, seed):
            cols = [system.evaluate_basis(x) for x in grid]
            tuples = ordered_index_tuples(len(grid), system.n, budget=budget, seed=seed)
            first = None
            for checked, t in enumerate(tuples, 1):
                sign = sign_of(*det_and_scale(minor_rows(cols, t, system.n)))
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
                maker = polynomial_system if kind == 2 else negated_polynomial_system
                system, m = maker(n), rng.randint(n + 3, 16)
                grid = grid_on(-1, 1, m)
            budget = rng.randint(1, math.comb(m, system.n) - 1)
            seed = rng.randrange(1000)
            want = reference(system, grid, budget, seed)
            got = classify_on_grid(system, grid, budget=budget, seed=seed)
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

    def test_named_systems(self):
        assert named_system("poly:3").n == 3
        assert named_system("exp:0,1,2").n == 3
        assert named_system("negpoly:2").n == 2
        assert named_system("cossin").n == 2
        with pytest.raises(ArgumentError):
            named_system("spline:3")
        with pytest.raises(ArgumentError):
            named_system("poly:0")
