import bisect
import contextlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chebconvex import (CERTIFIED, VIOLATED, BasisFunction, CallableSource,
                        ChebyshevSystem, DegenerateInputError, DomainError,
                        ExpressionSource, Interval,
                        NearSingularError, OmegaCombination, PreconditionError,
                        SourceEvalError,
                        TableSource, build_support, certify_corollary1,
                        certify_theorem_a, classical_dd, constrained_interpolate,
                        cosine_sine_system, d_det, exponential_system, gdd,
                        lemma1_residual,
                        negated_polynomial_system, parse_function,
                        parse_system, polynomial_system, scan_theorem2,
                        verify_definition)
from chebconvex.convexity import require_positive, sign_walk
from chebconvex import convexity, determinants, systems
from chebconvex.determinants import TAU_FACTOR, Windows, det_and_scale, sign_of, window_sweep
from chebconvex.divdiff import _zero_tested
from chebconvex.sampling import ordered_index_tuples
from chebconvex.systems import classify_on_grid

from conftest import (F_CUBE, F_EXP, F_FIFTH, F_NEG_CUBE, F_NEG_SQUARE, F_SQUARE,
                      draw_separated, exact_classical_dd, grid_on, minor_rows,
                      separated_points_strategy, twin)

EPS = math.ulp(1.0)


class TestTheoremA:
    def test_exp_wrt_affine_certified(self):
        cert = certify_theorem_a(polynomial_system(2), F_EXP, grid_on(-1, 1, 50))
        assert cert.verdict == CERTIFIED
        assert cert.min_value > 0.0
        assert cert.tuples_checked == math.comb(50, 3)
        assert cert.witness is None

    def test_cube_wrt_quadratics_certified(self):
        cert = certify_theorem_a(polynomial_system(3), F_CUBE, grid_on(-1, 1, 30))
        assert cert.verdict == CERTIFIED
        assert cert.min_value > 0.0

    def test_negated_cube_violated_with_recomputable_witness(self):
        system = polynomial_system(3)
        cert = certify_theorem_a(system, F_NEG_CUBE, grid_on(-1, 1, 30))
        assert cert.verdict == VIOLATED
        assert cert.witness is not None and len(cert.witness) == 4
        recomputed = d_det(system, cert.witness, F_NEG_CUBE)
        assert recomputed.value == pytest.approx(cert.witness_value, rel=1e-12)
        assert recomputed.value < -(cert.atol + cert.rtol * recomputed.scale)

    def test_non_positive_system_is_a_precondition_error(self):
        system = cosine_sine_system().truncate(1)
        grid = grid_on(0.2, 3.0, 20)
        with pytest.raises(PreconditionError):
            certify_theorem_a(system, F_SQUARE, grid)
        with pytest.raises(PreconditionError):
            certify_theorem_a(negated_polynomial_system(1), F_SQUARE, grid_on(-1, 1, 10))

    def test_refinement_never_flips_violated_to_certified(self):
        system = polynomial_system(3)
        coarse = grid_on(-1, 1, 12)
        fine = sorted(set(coarse) | set(grid_on(-0.95, 0.9, 15)))
        assert certify_theorem_a(system, F_NEG_CUBE, coarse).verdict == VIOLATED
        assert certify_theorem_a(system, F_NEG_CUBE, fine).verdict == VIOLATED

    def test_budgeted_run_is_deterministic(self):
        system = polynomial_system(2)
        grid = grid_on(-1, 1, 80)  # C(80, 3) = 82160 > budget
        a = certify_theorem_a(system, F_EXP, grid, budget=3000, seed=5)
        b = certify_theorem_a(system, F_EXP, grid, budget=3000, seed=5)
        assert a == b
        assert a.verdict == CERTIFIED
        # Every order's windows keep one sign: the windows decide every tuple.
        assert (a.coverage, a.tuples_checked) == ("windows", 80 - 3 + 1)
        # -x^3's bordered windows change sign at 0: the sample runs.
        c = certify_theorem_a(system, F_NEG_CUBE, grid, budget=3000, seed=5)
        assert c == certify_theorem_a(system, F_NEG_CUBE, grid, budget=3000, seed=5)
        assert c.verdict == VIOLATED
        assert (c.coverage, c.tuples_checked) == ("sampled", 3000)

    def test_basis_evaluated_once_per_grid_point(self, basis_calls):
        grid = grid_on(-1, 1, 30)
        certify_theorem_a(polynomial_system(3), F_CUBE, grid)
        assert basis_calls == Counter(grid)

    def test_sampled_scan_matches_sampler_order_reference(self):
        """The sampled tuples are scanned sorted; minimum, witness and counts
        equal those of a scan in sampler order with the same tie-break. The
        cases all fall back to the sample: -x^(n+1) w.r.t. poly:n, whose
        bordered windows change sign at 0; -x^4 w.r.t. poly:4 on grids whose
        worst window lies inside its own band; and (cos, sin) past pi / 2,
        where the windows of cos alone change sign."""

        def reference(system, f, grid, budget, seed, atol=1e-10, rtol=1e-8):
            n = system.n
            cols = [system.evaluate_basis(x) for x in grid]
            fvals = [f(x) for x in grid]
            tuples = ordered_index_tuples(len(grid), n + 1, budget=budget, seed=seed)
            best = violated = None
            for t in tuples:
                value, scale = det_and_scale(minor_rows(cols, t, n, fvals))
                key = (value, t)
                if best is None or key < best:
                    best = key
                if value < -(atol + rtol * scale) and (violated is None or key < violated):
                    violated = key
            witness = None if violated is None else tuple(grid[j] for j in violated[1])
            return (best[0], witness, None if violated is None else violated[0],
                    len(tuples), 0)

        rng = random.Random(7)
        cases = [(polynomial_system(n), ExpressionSource("negmonomial", (n + 1,)), -1, 1,
                  range(n + 6, 25))
                 for n in (2, 3)]
        cases.append((polynomial_system(4), ExpressionSource("negmonomial", (4,)), -1, 1,
                      (24, 25, 26)))
        cases += [(cosine_sine_system(Interval(0.0, 3.0)), ExpressionSource("const", (c,)),
                   0, 3, range(8, 25))
                  for c in (1.0, -1.0)]
        verdicts = set()
        for system, f, lo, hi, sizes in cases:
            for _ in range(3):
                m = rng.choice(sizes)
                grid = [float(x) for x in grid_on(lo, hi, m)]
                budget = rng.randint(m, min(math.comb(m, system.n + 1) - 1, 3000))
                seed = rng.randrange(1000)
                cert = certify_theorem_a(system, f, grid, budget=budget, seed=seed)
                assert cert.coverage == "sampled"
                got = (cert.min_value, cert.witness,
                       cert.witness_value, cert.tuples_checked, cert.skipped)
                assert repr(got) == repr(reference(system, f, grid, budget, seed))
                verdicts.add(cert.verdict)
        assert verdicts == {CERTIFIED, VIOLATED}


class TestCorollary1:
    def test_agreement_on_the_three_fixtures(self):
        cases = [
            (polynomial_system(2), F_EXP, grid_on(-1, 1, 50)),
            (polynomial_system(3), F_CUBE, grid_on(-1, 1, 30)),
            (polynomial_system(3), F_NEG_CUBE, grid_on(-1, 1, 30)),
        ]
        for system, f, grid in cases:
            a = certify_theorem_a(system, f, grid)
            b = certify_corollary1(system, f, grid)
            assert a.verdict == b.verdict

    def test_last_basis_function_certifies_with_flat_windows(self):
        cert = certify_corollary1(polynomial_system(3), F_SQUARE, grid_on(-1, 1, 12))
        assert cert.verdict == CERTIFIED
        assert cert.min_value == pytest.approx(0.0, abs=1e-12)

    def test_parabola_wrt_affine(self):
        cert = certify_corollary1(polynomial_system(2), F_SQUARE, grid_on(-1, 1, 25))
        assert cert.verdict == CERTIFIED

    def test_violated_witness_recomputable_from_windows(self):
        system = polynomial_system(3)
        cert = certify_corollary1(system, F_NEG_CUBE, grid_on(-1, 1, 15))
        assert cert.verdict == VIOLATED
        t = cert.witness
        hi = gdd(system, t[1:], F_NEG_CUBE).value
        lo = gdd(system, t[:3], F_NEG_CUBE).value
        assert hi - lo == pytest.approx(cert.witness_value, rel=1e-10)
        assert hi - lo < -(cert.atol + cert.rtol * max(abs(hi), abs(lo)))

    def test_basis_evaluated_once_per_grid_point(self, basis_calls):
        grid = grid_on(-1, 1, 30)
        certify_corollary1(polynomial_system(3), F_CUBE, grid)
        assert basis_calls == Counter(grid)

    def test_truncation_must_be_positive_too(self):
        # (x, x^3) has positive windows for the full pair on (0.1, 2) grids,
        # but its truncation (x) is fine there as well; use a grid touching
        # negative territory so the truncation flips sign.
        from chebconvex import BasisFunction, ChebyshevSystem
        system = ChebyshevSystem((BasisFunction("monomial", 1),
                                  BasisFunction("monomial", 3)))
        grid = grid_on(-2.0, 2.0, 12)
        with pytest.raises(PreconditionError):
            certify_corollary1(system, F_SQUARE, grid)


class TestTheorem2Scan:
    def test_cube_scan_is_shifted_identity(self):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        report = scan_theorem2(system, F_CUBE, (0.0, 1.0), grid_on(-2, 3, 200))
        assert not report.violations
        assert len(report.scan) == 200
        for x, value in report.scan:
            assert value == pytest.approx(1.0 + x, abs=1e-8)

    def test_constant_map_for_last_basis_function(self):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        report = scan_theorem2(system, F_SQUARE, (0.0, 1.0), grid_on(-2, 3, 60))
        assert not report.violations
        values = [v for _, v in report.scan]
        assert max(values) - min(values) <= 1e-10

    def test_negated_cube_scan_finds_violations(self):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        report = scan_theorem2(system, F_NEG_CUBE, (0.0, 1.0), grid_on(-2, 3, 60))
        assert report.violations
        (x0, v0), (x1, v1) = report.violations[0]
        assert x0 < x1 and v1 < v0

    def test_scan_excludes_knot_neighborhoods(self):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        grid = sorted(set(grid_on(-2, 3, 40)) | {0.0, 1.0, 1.0 + 1e-9})
        report = scan_theorem2(system, F_CUBE, (0.0, 1.0), grid)
        xs = [x for x, _ in report.scan]
        assert 0.0 not in xs and 1.0 not in xs and 1.0 + 1e-9 not in xs

    def test_boundary_knot_rejected(self):
        system = polynomial_system(3, Interval(0.0, 2.0))
        with pytest.raises(PreconditionError):
            scan_theorem2(system, F_CUBE, (0.0, 1.0), grid_on(0, 2, 30))

    def test_unsorted_knots_rejected(self):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        with pytest.raises(PreconditionError, match="knots must be strictly increasing"):
            scan_theorem2(system, F_CUBE, (1.0, 0.0), grid_on(-2, 3, 30))
        with pytest.raises(PreconditionError, match="knots must be strictly increasing"):
            build_support(system, F_CUBE, (1.0, 0.0), grid_on(-2, 3, 30))

    def test_basis_evaluated_once_per_knot_and_scanned_point(self, basis_calls):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        grid = sorted(set(grid_on(-2, 3, 41)) | {0.0, 1.0})
        report = scan_theorem2(system, F_CUBE, (0.0, 1.0), grid)
        scanned = [x for x, _ in report.scan]
        assert len(scanned) == len(grid) - 2
        assert basis_calls == Counter(scanned + [0.0, 1.0])

    @pytest.mark.parametrize("system, f", [
        (polynomial_system(2, Interval(-1.0, 2.0)), F_EXP),
        (polynomial_system(3, Interval(-1.0, 2.0)), F_EXP),
        (polynomial_system(4, Interval(-1.0, 2.0)), ExpressionSource("exp", (-1.5,))),
        (polynomial_system(5, Interval(-1.0, 2.0)), F_EXP),
        (exponential_system((0.0, 1.0, 2.0), Interval(-1.0, 2.0)), F_CUBE),
        (polynomial_system(3, Interval(-1.0, 2.0)), "table"),
    ])
    def test_scan_matches_gdd_at_every_point(self, system, f):
        n = system.n
        grid = grid_on(-1.0, 2.0, 663)
        rng = random.Random(7 * n)
        if f == "table":
            # A table knows f at its abscissae only, so the knots are grid points.
            f = TableSource(grid, [math.sin(3.0 * x) for x in grid])
            knots = sorted(rng.sample(grid[30:-30:40], n - 1))
        else:
            knots = draw_separated(rng, n - 1, -0.8, 1.8, sep=0.2)
        report = scan_theorem2(system, f, knots, grid)
        xs = [x for x, _ in report.scan]
        assert len(set(bisect.bisect(knots, x) for x in xs)) == n  # every segment
        for x, value in report.scan:
            assert value == pytest.approx(gdd(system, sorted((*knots, x)), f).value,
                                          rel=1e-9)

    @pytest.mark.parametrize("n, f", [
        (2, F_EXP), (3, F_CUBE), (3, F_EXP), (4, ExpressionSource("exp", (-1.5,))),
        (5, F_EXP), (5, F_FIFTH),
    ])
    def test_scan_matches_exact_divided_differences(self, n, f):
        """For (1, x, ..., x^(n-1)) the scan's values are the classical
        divided differences of the sampled f values, computed exactly."""
        system = polynomial_system(n, Interval(-1.0, 2.0))
        grid = grid_on(-1.0, 2.0, 301)
        knots = draw_separated(random.Random(n), n - 1, -0.8, 1.8, sep=0.2)
        report = scan_theorem2(system, f, knots, grid)
        xs = [x for x, _ in report.scan]
        assert len(set(bisect.bisect(knots, x) for x in xs)) == n  # every segment
        for x, value in report.scan:
            exact = exact_classical_dd(sorted((*knots, x)), f)
            assert abs(Fraction(value) - exact) <= 1e-9 * max(1, abs(exact)), x

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([polynomial_system(2, Interval(-1.0, 1.0)),
                            polynomial_system(3, Interval(-1.0, 1.0)),
                            polynomial_system(4, Interval(-1.0, 1.0)),
                            exponential_system((0.0, 1.0), Interval(-1.0, 1.0)),
                            exponential_system((0.0, 1.0, 2.0), Interval(-1.0, 1.0))])
           .flatmap(lambda system: st.tuples(
               st.just(system), separated_points_strategy(system.n - 1, -0.9, 0.9,
                                                          sep=0.1))),
           st.sampled_from([F_EXP, F_CUBE, F_NEG_CUBE]))
    # x^3 w.r.t. poly:3 is the sum of the points, which nearly vanishes at
    # x = -0.3999999999999999: there theorem 2 gave -4.66e-17 and gdd -6.53e-17.
    @example((polynomial_system(3, Interval(-1.0, 1.0)),
              (-0.05000000000000005, 0.44999999999999996)), F_CUBE)
    def test_scan_agrees_with_gdd_on_separated_knots(self, system_knots, f):
        system, knots = system_knots
        grid = grid_on(-1.0, 1.0, 41)
        report = scan_theorem2(system, f, knots, grid)
        for x, value in report.scan:
            want = gdd(system, sorted((*knots, x)), f).value
            # Where the value cancels nearly to 0, its rounding error is not
            # relative to it but to the terms that cancel: for x^3 w.r.t.
            # poly:3, a few eps times the sum of |point|. Lemma 1's form
            # divides that rounding by (u_n - q)(x), which vanishes at the
            # knots, so the floor grows by the sum of |point| over the
            # distance from x to the nearest knot.
            terms = sum(map(abs, (*knots, x)))
            floor = 8 * EPS * terms * max(1.0, terms / min(abs(x - k) for k in knots))
            assert abs(value - want) <= max(1e-9 * max(abs(value), abs(want)), floor), x

    @pytest.mark.parametrize("basis, knots, message", [
        ("monomial 1\nmonomial 0", (0.0,),
         "truncated-system collocation determinant degenerated at (0.0,)"),
        ("monomial 1\nmonomial 1\nmonomial 0", (-0.5, 0.5),
         "truncated-system collocation determinant degenerated at (-0.5, 0.5)"),
        ("monomial 0\nmonomial 2", (0.5,),
         "full-system collocation determinant degenerated at (-0.5, 0.5)"),
        ("monomial 0\nmonomial 2\nmonomial 3", (-0.3, 0.6),
         "truncated-system collocation determinant degenerated at (-0.3, 0.3)"),
    ])
    def test_degenerate_determinants_named_as_gdd_names_them(self, basis, knots,
                                                             message):
        # The first two truncations are singular at the knots, the last two
        # determinants at a scanned point (-0.5 and 0.3).
        system = parse_system("interval -1 1\n" + basis)
        grid = [j / 10 for j in range(-9, 10)]
        with pytest.raises(NearSingularError) as err:
            scan_theorem2(system, parse_function("monomial:3"), knots, grid)
        assert str(err.value) == message

    @pytest.mark.parametrize("gap, degenerate", [(1e-14, False), (1e-15, True)])
    def test_zero_tests_use_the_scale_of_gdd(self, gap, degenerate):
        # At x = 0.3 + gap the head (-0.3, x) of the truncation (1, x^2) is
        # nearly singular: inside its zero test for the smaller gap only.
        # The last function, e^(50x), enters the full determinant's scale
        # and must stay out of the head's, as in gdd.
        system = parse_system("interval -1 1\nmonomial 0\nmonomial 2\nexp 50")
        knots, x = (-0.3, 0.6), 0.3 + gap
        if degenerate:
            with pytest.raises(NearSingularError) as want:
                gdd(system, (-0.3, x, 0.6), F_CUBE)
            with pytest.raises(NearSingularError) as got:
                scan_theorem2(system, F_CUBE, knots, [0.0, x, 0.9])
            assert str(got.value) == str(want.value)
        else:
            report = scan_theorem2(system, F_CUBE, knots, [0.0, x, 0.9])
            assert report.scan[1][1] == pytest.approx(
                gdd(system, (-0.3, x, 0.6), F_CUBE).value, rel=1e-9)

    def test_heads_need_no_smaller_truncation(self):
        # (x) is singular at the knot 0, but no head of (x, 1) left of the
        # knot 0.5 is: gdd checks every point, and so does the scan.
        system = parse_system("interval -1 1\nmonomial 1\nmonomial 0\nmonomial 2")
        report = scan_theorem2(system, F_CUBE, (0.0, 0.5), [j / 10 for j in range(-9, 10)])
        assert len(report.scan) == 17
        for x, value in report.scan:
            assert value == pytest.approx(gdd(system, sorted((0.0, 0.5, x)), F_CUBE).value,
                                          rel=1e-9)

    def test_first_failing_point_decides_the_error(self):
        # (1, x^2) with the knot 0.5 degenerates at -0.5; an evaluation error
        # counts only at a point up to that one, in grid order.
        system = parse_system("interval -1 1\nmonomial 0\nmonomial 2")
        grid = [j / 10 for j in range(-9, 10)]
        for bad, error in ((-0.7, SourceEvalError), (-0.5, SourceEvalError),
                           (0.1, NearSingularError)):
            def f(x, bad=bad):
                if x == bad:
                    raise ValueError("no value here")
                return x ** 3
            with pytest.raises(error):
                scan_theorem2(system, CallableSource(f), (0.5,), grid)

    def test_truncation_singular_at_the_knots_raised_before_any_point(self):
        # The truncation (x) vanishes at the knot 0; f has a value there only.
        system = parse_system("interval -1 1\nmonomial 1\nmonomial 0")

        def f(x):
            if x != 0.0:
                raise ValueError("no value here")
            return 0.0
        with pytest.raises(NearSingularError, match="truncated-system"):
            scan_theorem2(system, CallableSource(f), (0.0,), [j / 10 for j in range(-9, 10)])

    def test_scan_on_certified_and_violated_fixtures(self):
        system = polynomial_system(3)
        grid = grid_on(-1, 1, 25)
        cert = certify_theorem_a(system, F_CUBE, grid)
        assert cert.verdict == CERTIFIED
        report = scan_theorem2(system, F_CUBE, (-0.5, 0.3), grid)
        assert not report.violations
        bad = certify_theorem_a(system, F_NEG_CUBE, grid)
        knots = bad.witness[:2]
        report = scan_theorem2(system, F_NEG_CUBE, knots, grid)
        assert report.violations


class TestDefinition:
    def test_chord_over_parabola(self):
        cert = verify_definition(polynomial_system(2), F_SQUARE, (0.0, 1.0),
                                 grid_on(-1, 2, 61))
        assert cert.verdict == CERTIFIED

    def test_f_equal_to_a_combination_certifies(self):
        f = ExpressionSource("poly", (0.5, 1.0, -2.0))
        cert = verify_definition(polynomial_system(3), f, (0.0, 0.5, 1.0),
                                 grid_on(-1, 2, 40))
        assert cert.verdict == CERTIFIED
        assert abs(cert.min_value) <= 1e-9

    def test_nodes_that_gdd_calls_degenerate_are_refused(self):
        # At the nodes 0 and 1, (e^(-23x), e^(-22.999999x)) has determinant
        # 1.03e-16 at the collocation scale 1: the interpolant's solve refuses
        # it as gdd does, where it once certified with coefficients of
        # +-9.74e15.
        system = exponential_system((-23.0, -22.999999), Interval(-1.0, 2.0))
        with pytest.raises(NearSingularError, match="numerically singular"):
            verify_definition(system, F_CUBE, (0.0, 1.0), [i / 10 for i in range(-10, 21)])
        with pytest.raises(NearSingularError, match=r"full-system .* at \(0\.0, 1\.0\)$"):
            gdd(system, (0.0, 1.0), F_CUBE)

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(PreconditionError, match="nodes must be strictly increasing"):
            verify_definition(polynomial_system(3), F_CUBE, (1.0, 0.0, 2.0),
                              grid_on(-1, 3, 30))

    def test_cube_alternates_around_three_nodes(self):
        nodes = (0.0, 1.0, 2.0)
        grid = grid_on(-1, 3, 81)
        cert = verify_definition(polynomial_system(3), F_CUBE, nodes, grid)
        assert cert.verdict == CERTIFIED
        # the interpolant is 3x^2 - 2x; the difference x(x-1)(x-2) alternates
        # -, +, -, + across the four regions
        delta = 1e-4 * 4.0
        for x in grid:
            if min(abs(x - k) for k in nodes) <= delta:
                continue
            diff = F_CUBE(x) - (3 * x * x - 2 * x)
            region = sum(1 for k in nodes if x > k)
            expected = (-1.0) ** (3 + region)
            assert expected * diff >= -1e-9 * max(1.0, abs(F_CUBE(x)))

    def test_target_evaluated_once_per_grid_point(self):
        calls = Counter()

        def square(x):
            calls[x] += 1
            return x * x

        grid = grid_on(-1, 2, 61)
        cert = verify_definition(polynomial_system(2), CallableSource(square),
                                 (0.01, 1.01), grid)
        assert cert.verdict == CERTIFIED
        assert cert.tuples_checked == len(grid)
        assert all(calls[x] == 1 for x in grid)

    def test_basis_evaluated_once_per_node_and_walked_point(self, basis_calls):
        grid = grid_on(-1, 3, 41)
        nodes = (grid[10], grid[20], grid[30])
        cert = verify_definition(polynomial_system(3), F_CUBE, nodes, grid)
        walked = [x for x in grid if x not in nodes]
        assert cert.tuples_checked == len(walked)
        assert basis_calls == Counter(walked + list(nodes))

    def test_negated_cube_violates_definition(self):
        cert = verify_definition(polynomial_system(3), F_NEG_CUBE, (0.0, 1.0, 2.0),
                                 grid_on(-1, 3, 81))
        assert cert.verdict == VIOLATED
        assert cert.witness is not None and len(cert.witness) == 1
        assert cert.witness_value < 0.0


class TestCrossMethod:
    def test_exp_system_agreement(self):
        system = exponential_system((0.0, 1.0), Interval(-1.0, 1.0))
        grid = grid_on(-1, 1, 20)
        convex = CallableSource(lambda x: x ** 4, "x^4")
        a = certify_theorem_a(system, convex, grid)
        b = certify_corollary1(system, convex, grid)
        assert a.verdict == b.verdict == CERTIFIED
        bumpy = CallableSource(lambda x: math.sin(3 * x), "sin3x")
        a = certify_theorem_a(system, bumpy, grid)
        b = certify_corollary1(system, bumpy, grid)
        assert a.verdict == b.verdict == VIOLATED

    def test_random_polynomials_agree(self):
        rng = random.Random(12)
        system = polynomial_system(3)
        grid = grid_on(-1, 1, 14)
        for _ in range(10):
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(4))
            f = ExpressionSource("poly", coeffs)
            a = certify_theorem_a(system, f, grid)
            b = certify_corollary1(system, f, grid)
            assert a.verdict == b.verdict


class TestPositivityPrechecks:
    """The window prechecks' verdict, witness and message, pinned for the
    system and its truncation; the system's failure is raised first."""

    IV = Interval(-2.0, 3.0)

    def message(self, run):
        with pytest.raises(PreconditionError) as info:
            run()
        return str(info.value)

    def test_negative_system(self):
        system = negated_polynomial_system(3, self.IV)
        want = ("system (-1, -x, -x^2) on [-2, 3] is not positive on the grid: "
                "verdict negative, witness None")
        grid = grid_on(-2, 3, 40)
        assert self.message(lambda: certify_theorem_a(system, F_CUBE, grid)) == want
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid)) == want
        assert self.message(lambda: build_support(system, F_CUBE, (0.0, 1.0), grid)) == want

    def test_negative_truncation_of_a_positive_system(self):
        system = negated_polynomial_system(4, self.IV)
        want = ("truncated system (-1, -x, -x^2) on [-2, 3] is not positive on the grid: "
                "verdict negative, witness None")
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid_on(-2, 3, 40))) == want
        assert self.message(lambda: build_support(system, F_CUBE, (0.0, 1.0, 2.0),
                                                  grid_on(-2, 3, 40))) == want

    def test_descending_rates(self):
        system = exponential_system((1.0, 0.0), self.IV)
        want = ("system (exp(1x), exp(0x)) on [-2, 3] is not positive on the grid: "
                "verdict negative, witness None")
        grid = grid_on(-2, 3, 40)
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid)) == want
        assert self.message(lambda: build_support(system, F_CUBE, (0.0,), grid)) == want

    def test_system_failure_is_raised_before_the_truncation_failure(self):
        # (x, 1, x^2) and its truncation (x, 1) are both negative
        system = ChebyshevSystem((BasisFunction("monomial", 1), BasisFunction("monomial", 0),
                                  BasisFunction("monomial", 2)), self.IV)
        want = ("system (x, 1, x^2) on [-2, 3] is not positive on the grid: "
                "verdict negative, witness None")
        grid = grid_on(-2, 3, 40)
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid)) == want
        assert self.message(lambda: build_support(system, F_CUBE, (0.0, 1.0), grid)) == want

    def test_non_chebyshev_truncation(self):
        # cos changes sign at pi/2, so its first window past it has a new sign
        system, grid = cosine_sine_system(), grid_on(0.1, 3.0, 30)
        want = ("truncated system (cos) on (0, 3.14159) is not positive on the grid: "
                "verdict non-chebyshev, witness (1.5999999999999999,)")
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid)) == want
        assert self.message(lambda: build_support(system, F_CUBE, (1.0,), grid)) == want

    def test_windows_under_the_zero_test_pass_by_their_exact_signs(self):
        # On this fine grid some windows of (1, x, x^2, x^3) come within the
        # zero test, but each is exactly positive and the sweep proves it:
        # the twin basis passes the grid check and certifies as poly:4 does
        # by its Vandermonde sign.
        system, grid = polynomial_system(4, self.IV), grid_on(-2, 3, 1000)
        cols = system.evaluate_grid(grid)
        assert any(sign_of(*det_and_scale(minor_rows(cols, range(i, i + 4), 4))) == "0"
                   for i in range(len(grid) - 3))
        for basis in (system, twin(system)):
            # x^3 is the last basis function, so every bordered determinant
            # is exactly 0.
            a = certify_theorem_a(basis, F_CUBE, grid, budget=10)
            assert (a.verdict, a.coverage, a.tuples_checked, a.min_value) == (
                CERTIFIED, "sampled", 996, 0.0)
            c = certify_corollary1(basis, F_CUBE, grid, budget=10)
            assert (c.verdict, c.coverage, c.tuples_checked, c.skipped) == (
                CERTIFIED, "sampled", 611, 385)

    def test_support_takes_a_positive_family_from_its_basis(self):
        # As above on 700 points: the Vandermonde sign passes poly:4, and
        # the exact window signs pass its twin.
        system, grid = polynomial_system(4, self.IV), grid_on(-2, 3, 700)
        cols = system.evaluate_grid(grid)
        windows = require_positive(twin(system), grid, cols, True)
        assert windows.first_failing(4) == windows.first_failing(3) == ("+", None)
        for basis in (system, twin(system)):
            result = build_support(basis, F_CUBE, (0.0, 1.0, 2.0), grid)
            assert result.c_n.estimate == 1.0
            assert result.pattern.overall


class TestOnePrecheck:
    """The basis decides the precheck where :func:`structural_sign` can,
    with the grid path's outcome, and the windows sweep only when a window
    search asks for it."""

    IV = Interval(-2.0, 3.0)

    @staticmethod
    def outcome(system, grid, truncation):
        try:
            require_positive(system, grid, system.evaluate_grid(grid), truncation)
        except PreconditionError as exc:
            return str(exc)
        return None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.permutations(range(k))),
           st.sampled_from(["monomial", "negmonomial"]), st.booleans(),
           st.integers(5, 9).flatmap(lambda m: separated_points_strategy(m, -2.0, 3.0, 0.25)))
    def test_structure_agrees_with_the_grid(self, powers, kind, truncation, grid):
        system = ChebyshevSystem(tuple(BasisFunction(kind, p) for p in powers), self.IV)
        truncation = truncation and system.n >= 2
        grid = list(grid)
        assert twin(system).evaluate_grid(grid) == system.evaluate_grid(grid)
        grid_path = self.outcome(twin(system), grid, truncation)
        assume(grid_path is None or "non-chebyshev" not in grid_path)
        assert self.outcome(system, grid, truncation) == grid_path

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = determinants.window_sweep

        def counting(cols, n):
            calls.append(n)
            return sweep(cols, n)

        monkeypatch.setattr(determinants, "window_sweep", counting)
        return calls

    @pytest.mark.parametrize("system, grid, f, knots", [
        (polynomial_system(3, IV), grid_on(-2, 3, 12), F_CUBE, (0.0, 1.0)),
        (cosine_sine_system(), grid_on(0.1, 1.5, 12), F_EXP, (0.5,)),
    ], ids=["poly3", "cossin"])
    @pytest.mark.parametrize("route, budget", [
        ("support", None), ("theoremA", 10000), ("corollary1", 10000),
        ("theoremA", 10), ("corollary1", 10)])
    def test_sweeps_only_on_request(self, sweeps, system, grid, f, knots, route, budget):
        if route == "support":
            build_support(system, f, knots, grid)
        else:
            certify = {"theoremA": certify_theorem_a, "corollary1": certify_corollary1}[route]
            cert = certify(system, f, grid, budget=budget)
            assert cert.coverage == ("windows" if budget == 10 else "exhaustive")
        # poly:3 is decided by its basis, cossin on the grid by one sweep of
        # its n basis rows; the windows route sweeps the n+1 bordered rows.
        assert sweeps == [system.n] * (system.name == "cossin") + [system.n + 1] * (budget == 10)


class TestCollapsedFloats:
    """A basis that :func:`structural_sign` decides can still evaluate to
    floats that are not a Chebyshev system on the grid; theorem A then
    refuses as the grid check would, rather than certify on zeros."""

    @pytest.mark.parametrize("f", [F_SQUARE, F_NEG_SQUARE], ids=["convex", "concave"])
    @pytest.mark.parametrize("rate, m, budget", [
        (1e-300, 6, 10000), (1e-300, 30, 100), (3e-16, 6, 10000)])
    def test_theorem_a_refuses(self, f, rate, m, budget):
        # exp(rate x) rounds to 1.0 at x = 0 and the next point, so the first
        # window of (1, exp(rate x)) is exactly singular; at 1e-300 every
        # window is, and every bordered determinant reads 0.
        system, grid = exponential_system((0.0, rate), Interval(0.0, 1.0)), grid_on(0, 1, m)
        with pytest.raises(PreconditionError) as info:
            certify_theorem_a(system, f, grid, budget=budget)
        assert str(info.value) == (
            f"system (exp(0x), exp({rate:g}x)) on [0, 1] is not positive on the grid: "
            f"verdict non-chebyshev, witness {tuple(grid[:2])}")
        with pytest.raises(NearSingularError, match="degenerated; nothing was checked"):
            certify_corollary1(system, f, grid, budget=budget)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: a bordered determinant inside the "
                              "absolute atol band certifies, whatever its sign")
    def test_theorem_a_does_not_certify_a_concave_target_inside_the_band(self):
        # e^(1e-14 x) is distinct at the six points, so every window of the
        # system is exactly positive and the collapse test passes; every
        # bordered determinant of -x^2 is negative but above -atol (the
        # minimum is -2.4e-15). Corollary 1 refuses the same input.
        system, grid = exponential_system((0.0, 1e-14), Interval(0.0, 1.0)), grid_on(0, 1, 6)
        with pytest.raises(NearSingularError, match="degenerated; nothing was checked"):
            certify_corollary1(system, F_NEG_SQUARE, grid)
        cert = certify_theorem_a(system, F_NEG_SQUARE, grid)
        assert cert.verdict != CERTIFIED


class TestExactBorderedSigns:
    """Past the budget, a bordered window that the zero test leaves open
    counts as positive by the exact sign of its evaluated floats."""

    IV = Interval(-2.0, 3.0)

    @pytest.mark.parametrize("certify, m", [(certify_theorem_a, 50), (certify_corollary1, 40)])
    def test_fifth_power_on_a_fine_grid_takes_the_windows_route(self, certify, m):
        cert = certify(polynomial_system(5, self.IV), F_FIFTH, grid_on(-2, 3, m), budget=2000)
        assert (cert.coverage, cert.tuples_checked, cert.verdict) == ("windows", m - 5, CERTIFIED)

    def test_windows_under_the_zero_test_agree_with_the_exhaustive_scan(self):
        system, grid, n = polynomial_system(5, self.IV), grid_on(2, 3, 12), 5
        cols = [system.evaluate_basis(x) for x in grid]
        fvals = [F_FIFTH(x) for x in grid]
        windows = [tuple(range(i, i + n + 1)) for i in range(len(grid) - n)]
        # Window by window, as the exhaustive scan computes them, bit for bit.
        bordered = [det_and_scale(minor_rows(cols, w, n, fvals)) for w in windows]
        assert all(abs(det) <= TAU_FACTOR * scale for det, scale in bordered)
        assert {sign_of(*det_and_scale(minor_rows(cols, tuple(range(i, i + n)), n)))
                for i in range(len(grid) - n + 1)} == {"+"}

        def dd(w):
            num = det_and_scale(minor_rows(cols, w, n - 1, fvals))[0]
            return num / det_and_scale(minor_rows(cols, w, n))[0]

        window_values = {
            certify_theorem_a: [det for det, _ in bordered],
            certify_corollary1: [dd(w[1:]) - dd(w[:n]) for w in windows],
        }
        for certify, values in window_values.items():
            routed = certify(system, F_FIFTH, grid, budget=500)
            full = certify(system, F_FIFTH, grid, budget=math.comb(12, 6))
            assert (routed.coverage, full.coverage) == ("windows", "exhaustive")
            assert routed.verdict == full.verdict == CERTIFIED
            assert routed.min_value == min(values)

    @pytest.mark.parametrize("certify, m", [(certify_theorem_a, 50), (certify_corollary1, 40)])
    def test_target_in_the_span_keeps_the_sample(self, certify, m):
        # x^2 is the third basis function, so every bordered window is
        # exactly singular: "0" by the zero test and 0 by the exact sign.
        cert = certify(polynomial_system(5, self.IV), F_SQUARE, grid_on(-2, 3, m), budget=2000)
        assert (cert.coverage, cert.tuples_checked) == ("sampled", 2000)

    def test_window_with_a_nonfinite_entry_is_not_positive(self):
        system, grid = polynomial_system(2, self.IV), grid_on(-2, 3, 6)
        cols = [system.evaluate_basis(x) for x in grid]
        bordered = [c + (F_SQUARE(x),) for c, x in zip(cols, grid)]
        assert Windows(bordered, 3).keep_sign()
        # An infinite entry makes the window's scale infinite, so the zero
        # test calls it "0"; the exact sign must leave it undecided.
        bordered[0] = bordered[0][:2] + (math.inf,)
        assert sign_of(*det_and_scale(minor_rows(bordered, (0, 1, 2), 3))) == "0"
        assert not Windows(bordered, 3).keep_sign()


class TestNegativeWindowsRoute:
    """Past the budget, bordered windows that share the sign "-" decide a
    violated certificate when the worst of them violates; otherwise the
    sample runs."""

    #: -1e-12 x^4: w.r.t. poly:4 on a grid of [-1, 1], every bordered window
    #: clears the zero test negative, and none clears its violation band.
    TINY = ExpressionSource("poly", (0.0, 0.0, 0.0, 0.0, -1e-12))

    def test_workload_shapes(self):
        # On this grid the most negative window of -x^4 lies inside its own
        # atol + rtol * scale band, so theorem A keeps its sample.
        a = certify_theorem_a(polynomial_system(4), ExpressionSource("negmonomial", (4,)),
                              grid_on(-2, 3, 40), budget=2000)
        assert (a.coverage, a.tuples_checked, a.verdict) == ("sampled", 2000, VIOLATED)
        c = certify_corollary1(exponential_system([0.0, 1.0, 2.0]),
                               ExpressionSource("exp", (-1.0,)), grid_on(-1, 1, 60),
                               budget=2000)
        assert (c.coverage, c.tuples_checked, c.verdict) == ("windows", 57, VIOLATED)
        assert c.min_value == c.witness_value < 0.0

    @pytest.mark.parametrize("certify", [certify_theorem_a, certify_corollary1])
    def test_worst_window_inside_its_band_keeps_the_sample(self, certify):
        cert = certify(polynomial_system(4), self.TINY, grid_on(-1, 1, 24), budget=500, seed=3)
        assert (cert.coverage, cert.tuples_checked, cert.verdict) == ("sampled", 500, CERTIFIED)
        assert cert.min_value < 0.0

    def test_windows_under_the_zero_test_join_by_their_exact_sign(self):
        # -x^5 w.r.t. poly:5 on a coarse grid of [-2, 1.5] and a fine one of
        # [2, 3]: the fine windows fall under the zero test with the exact
        # sign -1, and the coarse ones violate.
        system, f = polynomial_system(5, Interval(-2.0, 3.0)), ExpressionSource("negmonomial", (5,))
        grid = grid_on(-2, 1.5, 15) + grid_on(2, 3, 8)
        cols = [system.evaluate_basis(x) for x in grid]
        fvals = [f(x) for x in grid]
        signs = [sign_of(*det_and_scale(minor_rows(cols, tuple(range(i, i + 6)), 5, fvals)))
                 for i in range(len(grid) - 5)]
        assert (signs.count("0"), signs.count("-")) == (3, 15)
        windows = Windows([c + (v,) for c, v in zip(cols, fvals)], 6)
        assert windows.keep_sign() and windows.first_failing(6)[0] == "-"
        cert = certify_corollary1(system, f, grid, budget=500)
        assert (cert.coverage, cert.tuples_checked, cert.verdict) == ("windows", 18, VIOLATED)

    def test_window_with_a_nan_minor_has_no_sign(self):
        system, grid = polynomial_system(2), grid_on(-1, 1, 6)
        cols = [system.evaluate_basis(x) for x in grid]
        bordered = [c + (-x * x,) for c, x in zip(cols, grid)]
        windows = Windows(bordered, 3)
        assert windows.keep_sign() and windows.first_failing(3)[0] == "-"
        # The zero test calls a NaN determinant "-"; it must not join the
        # negative windows.
        bordered[3] = bordered[3][:2] + (math.nan,)
        assert sign_of(*det_and_scale(minor_rows(bordered, (1, 2, 3), 3))) == "-"
        assert not Windows(bordered, 3).keep_sign()

    def test_corollary1_scores_each_window_once(self, minor_counts):
        # The route decision scores the 21 contiguous windows by their
        # n-point divided differences alone and is turned down; the sample
        # reuses them.
        n, m, budget, seed = 4, 24, 500, 3
        certify_corollary1(polynomial_system(n), self.TINY, grid_on(-1, 1, m),
                           budget=budget, seed=seed)
        tuples = ordered_index_tuples(m, n + 1, budget=budget, seed=seed)
        distinct = {w for t in tuples for w in (t[:n], t[1:])}
        # A numerator and a denominator per window, and no bordered minor.
        assert minor_counts == {n: 2 * len(distinct)}

    def test_theorem_a_scores_each_sampled_tuple_once(self, minor_counts):
        # The route decision computes the 36 bordered windows and is turned
        # down; the sample, which holds them, scores each of its tuples once.
        system, f = polynomial_system(4), ExpressionSource("negmonomial", (4,))
        grid = grid_on(-2, 3, 40)
        cert = certify_theorem_a(system, f, grid, budget=2000)
        assert (cert.coverage, cert.tuples_checked) == ("sampled", 2000)
        assert minor_counts == {5: 36 + 2000}
        # The minimum and the witness, from each sampled tuple's determinant
        # computed alone.
        cols, fvals = system.evaluate_grid(grid), [f(x) for x in grid]
        tuples = ordered_index_tuples(40, 5, budget=2000, seed=0)
        dets = [det_and_scale(minor_rows(cols, t, 4, fvals)) for t in tuples]
        assert cert.min_value == min(dets)[0]
        value, t = min((value, t) for (value, scale), t in zip(dets, tuples)
                       if value < -(cert.atol + cert.rtol * scale))
        assert cert.verdict == VIOLATED
        assert (cert.witness_value, cert.witness) == (value, tuple(grid[j] for j in t))


class TestOneMinorPerWindow:
    """On the windows route no window's sign takes a kernel minor: the sweep
    decides it, or, where it leaves it open, :func:`exact_sign`. The kernel
    computes each bordered window's value once, for theorem A's certificate.
    Corollary 1 computes no bordered minor, only its n-point numerators and
    denominators, once each."""

    IV = Interval(-2.0, 3.0)

    def test_classify(self, minor_counts):
        got = classify_on_grid(polynomial_system(5, self.IV), grid_on(-2, 3, 50), budget=2000)
        assert (got.coverage, got.verdict, got.tuples_checked) == ("windows", "positive", 46)
        assert minor_counts == {}

    def test_theorem_a(self, minor_counts):
        cert = certify_theorem_a(polynomial_system(5, self.IV), F_FIFTH, grid_on(-2, 3, 50),
                                 budget=2000)
        assert (cert.coverage, cert.tuples_checked) == ("windows", 45)
        assert minor_counts == {6: 45}

    def test_corollary1(self, minor_counts):
        cert = certify_corollary1(polynomial_system(5, self.IV), F_FIFTH, grid_on(-2, 3, 40),
                                  budget=2000)
        assert (cert.coverage, cert.tuples_checked) == ("windows", 35)
        # A denominator and a numerator per window of 5 points, and no
        # bordered minor: the sweep decides the route.
        assert minor_counts == {5: 36 + 36}

    @pytest.mark.parametrize("method, system, f, m, verdict", [
        ("theoremA", polynomial_system(5, IV), F_FIFTH, 50, CERTIFIED),
        ("corollary1", polynomial_system(5, IV), F_FIFTH, 40, CERTIFIED),
        ("theoremA", polynomial_system(3, Interval(-1.0, 1.0)), F_NEG_CUBE, 30, VIOLATED),
        ("corollary1", exponential_system([0.0, 1.0, 2.0], Interval(-1.0, 1.0)),
         ExpressionSource("exp", (-1.0,)), 60, VIOLATED),
    ], ids=["theoremA+", "corollary1+", "theoremA-", "corollary1-"])
    def test_route_values_are_those_of_each_window_alone(self, method, system, f, m, verdict):
        # The "+" and "-" routes: the minimum and the witness, bit for bit,
        # from each window's value computed alone.
        iv, n = system.interval, system.n
        grid = grid_on(iv.lo, iv.hi, m)
        certify = {"theoremA": certify_theorem_a, "corollary1": certify_corollary1}[method]
        cert = certify(system, f, grid, budget=500)
        assert (cert.coverage, cert.tuples_checked, cert.verdict) == ("windows", m - n, verdict)
        cols, fvals = system.evaluate_grid(grid), [f(x) for x in grid]
        windows = [tuple(range(i, i + n + 1)) for i in range(m - n)]

        def dd(w):
            num = det_and_scale(minor_rows(cols, w, n - 1, fvals))[0]
            return num / det_and_scale(minor_rows(cols, w, n))[0]

        if method == "theoremA":
            scored = [(value, w, cert.atol + cert.rtol * scale) for w, (value, scale) in
                      ((w, det_and_scale(minor_rows(cols, w, n, fvals))) for w in windows)]
        else:
            scored = [(hi - lo, w, cert.atol + cert.rtol * max(abs(hi), abs(lo)))
                      for w, lo, hi in ((w, dd(w[:n]), dd(w[1:])) for w in windows)]
        assert cert.min_value == min(scored)[0]
        worst = min(((value, w) for value, w, tol in scored if value < -tol), default=None)
        if worst is None:
            assert (cert.witness, cert.witness_value) == (None, None)
        else:
            assert (cert.witness_value, cert.witness) == (worst[0], tuple(grid[j] for j in worst[1]))

    def test_classify_sample_reads_its_windows_from_the_search(self, minor_counts):
        # cos changes sign on [0, 6], so the sample runs; its 39 leading
        # windows of (cos, sin) all have the sign "+", and the sweep decides
        # them all. The kernel computes the 12 sorted sample tuples scanned
        # up to the failure at position 39, not the windows again.
        system, grid = cosine_sine_system(Interval(0.0, 6.0)), grid_on(0, 6, 40)
        cols = [system.evaluate_basis(x) for x in grid]
        assert list(window_sweep(cols, 2))[1] == [1] * 39
        got = classify_on_grid(system, grid, budget=300, seed=1)
        assert (got.coverage, got.verdict, got.tuples_checked) == ("sampled", "non-chebyshev", 40)
        assert minor_counts == {2: 12}


def min_distance_walk(nodes, grid, delta):
    """The walk's rule point by point: a point is kept when it is farther
    than ``delta`` from every node."""
    return [(j, bisect.bisect_left(nodes, x)) for j, x in enumerate(grid)
            if min(abs(x - k) for k in nodes) > delta]


def per_point_walk(nodes, grid, delta):
    """The walk one point at a time: only the two nodes around each point,
    found by bisection, are tested."""
    kept = []
    for j, x in enumerate(grid):
        i = bisect.bisect_left(nodes, x)
        if (i and x - nodes[i - 1] <= delta) or (i < len(nodes) and nodes[i] - x <= delta):
            continue
        kept.append((j, i))
    return kept


def walked(nodes, grid, delta):
    """:func:`sign_walk`'s kept indices and regions as ``(j, region)`` pairs."""
    js, regions = sign_walk(nodes, grid, delta)
    assert len(js) == len(regions)
    return list(zip(js, regions))


class TestSignWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5), st.booleans(),
           st.floats(0.0, 0.5), st.lists(st.floats(-3.0, 3.0), max_size=30), st.data())
    def test_bisection_keeps_the_min_distance_points(self, nodes, repeat, delta, grid, data):
        nodes = sorted(nodes)
        if repeat:  # support counts its last knot twice
            nodes.append(nodes[-1])
        # Points exactly delta from a node, on either side.
        edges = [k + s * delta for k in nodes for s in (-1.0, 1.0)]
        grid = sorted(grid + data.draw(st.lists(st.sampled_from(edges), max_size=6)))
        assert walked(nodes, grid, delta) == min_distance_walk(nodes, grid, delta)
        assert walked(nodes, grid, delta) == per_point_walk(nodes, grid, delta)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.0, 2.0), st.lists(st.floats(0.0, 3.0), max_size=4),
           st.floats(1e-6, 0.5), st.integers(2, 60), st.data())
    def test_runs_agree_with_the_per_point_walk(self, first, gaps, delta, count, data):
        # Gaps up to 3 delta, so neighbouring nodes are often closer than
        # 2 delta and their dropped runs overlap; nodes may lie outside the
        # grid, which spans [-1, 1].
        nodes = [first]
        for gap in gaps:
            nodes.append(nodes[-1] + gap * delta)
        if data.draw(st.booleans()):
            nodes.append(nodes[-1])
        grid = grid_on(-1.0, 1.0, count)
        edges = [k + s * delta for k in nodes for s in (-1.0, 1.0)]
        grid = sorted(set(grid).union(data.draw(st.lists(st.sampled_from(edges),
                                                         max_size=6))))
        assert walked(nodes, grid, delta) == per_point_walk(nodes, grid, delta)

    def test_points_delta_from_a_node_are_dropped(self):
        nodes, delta = (0.0, 1.0, 1.0), 0.25
        grid = [-0.5, -0.25, 0.25, 0.5, 0.75, 1.25, 1.5]
        assert walked(nodes, grid, delta) == [(0, 0), (3, 1), (6, 3)]
        assert walked(nodes, grid, delta) == min_distance_walk(nodes, grid, delta)

    def test_nodes_outside_the_grid(self):
        grid = [j / 4 for j in range(-4, 5)]
        assert walked((-3.0, -2.0), grid, 0.5) == [(j, 2) for j in range(9)]
        assert walked((2.0, 3.0), grid, 0.5) == [(j, 0) for j in range(9)]
        assert walked((-1.5, 1.5), grid, 0.5) == [(j, 1) for j in range(1, 8)]
        assert sign_walk((0.0,), [], 0.5) == ([], [])


class TestNonFiniteTarget:
    """A library callable that is not finite at an evaluated point raises
    :class:`SourceEvalError` naming the first such point; sources (every
    CLI target) raise it themselves."""

    GRID = [i / 10 for i in range(-10, 11)]
    NODES = (-0.75, -0.25, 0.25, 0.75)

    @staticmethod
    def target(bad, value=math.nan):
        return lambda x: value if x in bad else -x ** 4

    KNOTS = (-0.75, -0.25, 0.25)

    @classmethod
    def run(cls, route, f):
        system = polynomial_system(4)
        return {"theoremA": lambda: certify_theorem_a(system, f, cls.GRID, budget=100),
                "corollary1": lambda: certify_corollary1(system, f, cls.GRID, budget=100),
                "definition": lambda: verify_definition(system, f, cls.NODES, cls.GRID),
                "theorem2": lambda: scan_theorem2(system, f, cls.KNOTS, cls.GRID),
                "support": lambda: build_support(system, f, cls.KNOTS, cls.GRID)}[route]()

    @pytest.mark.parametrize("route", ["theoremA", "corollary1", "definition", "theorem2",
                                       "support"])
    @pytest.mark.parametrize("bad, named", [((-1.0,), -1.0), ((0.5,), 0.5),
                                            ((0.5, -0.3), -0.3)])
    def test_first_nonfinite_point_is_named(self, route, bad, named):
        with pytest.raises(SourceEvalError,
                           match=rf"^target function returned nan at x={named!r}$"):
            self.run(route, self.target(bad))

    @pytest.mark.parametrize("route", ["theoremA", "corollary1", "definition", "theorem2",
                                       "support"])
    def test_raising_callable_names_only_the_failing_point(self, route):
        def f(x):
            if x in (0.5, 0.7):
                raise ZeroDivisionError("no value here")
            return -x ** 4
        with pytest.raises(SourceEvalError) as info:
            self.run(route, f)
        assert str(info.value) == "target function failed at x=0.5"
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("route", ["theorem2", "support"])
    def test_nan_right_of_two_on_200_points(self, route):
        # Every value right of x = 2 is NaN; the scan and the pattern check
        # name the first such grid point instead of counting it as checked.
        system, grid = polynomial_system(3, Interval(-2.0, 3.0)), [-2 + 5 * j / 199 for j in range(200)]
        f = lambda x: x ** 3 if x <= 2.0 else math.nan  # noqa: E731
        with pytest.raises(SourceEvalError,
                           match=r"^target function returned nan at x=2\.0201005025125625$"):
            if route == "theorem2":
                scan_theorem2(system, f, (0.0, 1.0), grid)
            else:
                build_support(system, f, (0.0, 1.0), grid)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_pointwise_functions_reject_a_nonfinite_value(self, value):
        f, system = self.target((0.5,), value), polynomial_system(3)
        message = rf"^target function returned {value!r} at x=0\.5$"
        for run in (lambda: d_det(system, (0.0, 0.25, 0.5, 1.0), f),
                    lambda: gdd(system, (0.0, 0.5, 1.0), f),
                    lambda: classical_dd((0.0, 0.5, 1.0), f),
                    lambda: constrained_interpolate(system, (0.0, 0.5), f, 1.0),
                    lambda: lemma1_residual(system, (0.0, 1.0), f, 1.0, 0.5)):
            with pytest.raises(SourceEvalError, match=message):
                run()

    def test_infinite_value_and_definition_node(self):
        # The nodes are evaluated before the grid; 0.25 is a node only.
        f = self.target((0.25, 0.2), -math.inf)
        with pytest.raises(SourceEvalError, match=r"returned -inf at x=0\.25$"):
            verify_definition(polynomial_system(4), f, self.NODES, self.GRID)
        with pytest.raises(SourceEvalError, match=r"returned -inf at x=0\.2$"):
            certify_theorem_a(polynomial_system(4), f, self.GRID)

    def test_finite_targets_unchanged(self):
        cert = certify_theorem_a(polynomial_system(4), self.target(()), self.GRID, budget=100)
        assert cert.verdict == VIOLATED and cert.min_value <= cert.witness_value < 0.0


class TestOverflow:
    """Finite values whose combination or determinant overflows raise
    :class:`DomainError` naming the first failing point or tuple, and
    nothing certifies on a value or tolerance that is not finite."""

    #: 1e308 x - 5e307 x^2: finite on [-1, 1.85], while its interpolant's
    #: term 1e308 x overflows past x = 1.797...
    BIG = ExpressionSource("poly", (0.0, 1e308, -5e307))

    def test_definition_names_the_first_point_where_the_interpolant_overflows(self):
        system = polynomial_system(3, Interval(-1.0, 3.0))
        with pytest.raises(DomainError, match=r"is not finite at x=1\.85$"):
            verify_definition(system, self.BIG, (0.0, 0.5, 1.0), grid_on(-1, 1.85, 30))

    def test_theorem2_and_support_raise_a_library_error(self):
        system, grid = polynomial_system(3, Interval(-1.0, 3.0)), grid_on(-1, 3, 50)
        # Theorem 2's map names its points as gdd does; support's
        # interpolant overflows first.
        with pytest.raises(DomainError, match=r"^divided difference -inf at \(0\.2, 0\.5, "
                                              r"2\.265306122448979\) is not finite$"):
            scan_theorem2(system, self.BIG, (0.2, 0.5), grid)
        with pytest.raises(DomainError, match="is not finite at x="):
            build_support(system, self.BIG, (0.2, 0.5), grid)

    @pytest.mark.parametrize("certify", [certify_theorem_a, certify_corollary1])
    def test_infinite_value_or_tolerance_never_certifies(self, certify):
        # The scale of each tuple overflows, so atol + rtol * scale is inf
        # and no value falls below its negative.
        values = {0.0: 1e308, 0.5: -1e308, 1.0: 1e308, 2.0: -1e308}
        with pytest.raises(DomainError, match=r"at \(0\.0, 0\.5, 1\.0\) is not finite$"):
            certify(polynomial_system(2), values.__getitem__, sorted(values))

    def test_band_past_the_float_range_at_the_bound_takes_the_tuple_scale(self):
        # B is finite, but rtol * B is not: no tuple is decided at B, and
        # the first tuple whose own band overflows is named with it.
        grid = [-2 + 5 * i / 15 for i in range(16)]
        with pytest.raises(DomainError) as raised:
            certify_theorem_a(polynomial_system(2), ExpressionSource("monomial", (2,)),
                              grid, rtol=1e307)
        assert str(raised.value) == (
            "theoremA: value 6.74074074074074 with tolerance inf at "
            "(-2.0, -1.6666666666666667, 2.666666666666667) is not finite")


class ExactScales(determinants.ScaleBound):
    """A bound that decides nothing: every zero test and band at the
    tuple's own scale, as each was computed before the bound."""

    def __init__(self, vecs):
        super().__init__(vecs)
        self.bound = self.tau = math.inf


@st.composite
def wide_requests(draw):
    """A system on [-1, 1] whose rows span up to about 2^±100 (rates up to
    70, constants 2^-100 to 2^100, repeated or zero rows for exactly
    singular minors), a grid with points a few ulps apart, a target, a
    budget and tolerances from 1e-300 to 1e307."""
    n = draw(st.integers(1, 4))
    rates = st.floats(-70, 70)
    if draw(st.booleans()):  # exponentials with distinct rates: positive
        basis = [BasisFunction("exp", a) for a in sorted(
            draw(st.lists(rates, min_size=n, max_size=n, unique=True)))]
    else:
        constants = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                              st.integers(-100, 100).map(lambda e: 2.0 ** e))
        basis = [draw(st.one_of(st.builds(BasisFunction, st.just("monomial"),
                                          st.integers(0, 3).map(float)),
                                st.builds(BasisFunction, st.just("exp"), rates),
                                st.builds(BasisFunction, st.just("const"), constants)))
                 for _ in range(n)]
    points = draw(st.lists(st.floats(-1, 1), min_size=n + 1, max_size=n + 6, unique=True))
    points += [x + ulps * math.ulp(x) for x, ulps in draw(st.lists(
        st.tuples(st.sampled_from(points), st.integers(1, 64)), max_size=3))]
    grid = sorted({x for x in points if -1.0 <= x <= 1.0})
    assume(len(grid) > n)
    e, b = draw(st.integers(-100, 100)), draw(st.floats(-3, 3))
    f = draw(st.sampled_from([ExpressionSource("exp", (b,)),
                              ExpressionSource("poly", (0.0, -b, 2.0 ** e)),
                              ExpressionSource("negmonomial", (n,))]))
    # The last range puts rtol * scale near typical values, where the bands
    # at 0 and at the bound often part.
    tolerance = st.one_of(st.sampled_from([0.0, 1e-300, 1e307]),
                          st.floats(-300, 307).map(lambda u: 10.0 ** u),
                          st.floats(-16, 1).map(lambda u: 10.0 ** u))
    # An integer rtol picks a tuple to put just past its own band.
    return (ChebyshevSystem(tuple(basis), Interval(-1.0, 1.0)), grid, f,
            {"budget": draw(st.sampled_from([n + 1, 40, 10_000])),
             "seed": draw(st.integers(0, 20))},
            {"atol": draw(tolerance), "rtol": draw(tolerance | st.integers(0, 10 ** 6))})


class TestScaleBoundFilter:
    """The scan's bound decides classify's signs, corollary 1's zero tests
    and theorem A's violation flags and errors as each tuple's own scale
    does."""

    def test_violation_inside_the_band_at_the_bound_stands(self):
        # B = 1e8 from the point 100, so the band at B, 1e5, would hide the
        # only negative tuple, -0.164 at its own scale 1, band 1e-3.
        grid = [-1.0, -0.5, -0.25, 100.0]
        cert = certify_theorem_a(polynomial_system(2), F_CUBE, grid, rtol=1e-3)
        assert (cert.verdict, cert.witness) == (VIOLATED, (-1.0, -0.5, -0.25))
        assert cert.witness_value == pytest.approx(-0.1640625, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_value_not_finite_names_its_own_band(self, monkeypatch, bad):
        # A value that is not finite is never decided at the bound, so its
        # error names the tolerance at the tuple's own scale.
        system, grid = polynomial_system(3), grid_on(0, 2, 8)

        def scan(vecs, tuples):
            values = list(determinants.minor_scan(vecs, tuples))
            return [bad] + values[1:]

        monkeypatch.setattr(convexity, "minor_scan", scan)
        t = (0, 1, 2, 3)
        scale = det_and_scale(minor_rows(system.evaluate_grid(grid), t, 3,
                                         [F_CUBE(x) for x in grid]))[1]
        with pytest.raises(DomainError) as raised:
            certify_theorem_a(system, F_CUBE, grid, rtol=1e-3)
        assert str(raised.value) == (
            f"theoremA: value {bad!r} with tolerance {1e-10 + 1e-3 * scale!r} at "
            f"{tuple(grid[j] for j in t)} is not finite")

    @staticmethod
    def outcome(call, *args, **kwargs):
        try:
            return repr(call(*args, **kwargs))
        except Exception as exc:
            return type(exc).__name__, str(exc)

    @staticmethod
    def band_past(system, grid, f, atol, pick):
        """An rtol that leaves the picked one of the bordered minors with a
        value below -atol a violation by half its margin, at its own
        scale: a scale far under B puts it between the bands at 0 and B."""
        n, cols, fvals = system.n, system.evaluate_grid(grid), [f(x) for x in grid]
        minors = [det_and_scale(minor_rows(cols, t, n, fvals))
                  for t in itertools.combinations(range(len(grid)), n + 1)]
        margins = [(-value - atol) / scale for value, scale in minors
                   if -value > atol and 0.0 < scale and math.isfinite(value)]
        return margins[pick % len(margins)] / 2 if margins else 1e-8

    def outcomes(self, case):
        system, grid, f, scan, tolerances = case
        if isinstance(tolerances["rtol"], int):
            tolerances = dict(tolerances, rtol=self.band_past(
                system, grid, f, tolerances["atol"], tolerances["rtol"]))
        return [self.outcome(classify_on_grid, system, grid, **scan),
                self.outcome(certify_theorem_a, system, f, grid, **scan, **tolerances),
                self.outcome(certify_corollary1, system, f, grid, **scan, **tolerances)]

    @settings(max_examples=200, deadline=None)
    @given(wide_requests())
    def test_matches_the_tuple_scales(self, case):
        got = self.outcomes(case)
        with pytest.MonkeyPatch.context() as patch:
            for module in (convexity, systems):
                patch.setattr(module, "ScaleBound", ExactScales)
            assert got == self.outcomes(case)


class TestBulkEvaluationErrors:
    """The pointwise routes evaluate the basis in bulk and raise what the
    point-by-point path raises, in the same order: an f error or a
    degeneracy at an earlier point wins over a basis overflow."""

    SYSTEM = exponential_system((0.0, 800.0), Interval(-1.0, 1.0))
    GRID = [j / 20 for j in range(-19, 20)]  # exp(800 x) overflows from x = 0.9

    def per_point_error(self, system, grid):
        with pytest.raises(DomainError) as info:
            [system.evaluate_basis(x) for x in grid]
        return str(info.value)

    #: x^2 overflows at the first point; support takes (1, x, x^2)'s
    #: positivity from its basis, yet still evaluates it over the grid first.
    POLY, POLY_GRID = polynomial_system(3), grid_on(-1e200, 1e200, 5)

    @pytest.mark.parametrize("route", ["support", "theorem2", "definition", "support-poly"])
    def test_overflow_message_matches_the_point_by_point_path(self, route):
        poly = route == "support-poly"
        want = self.per_point_error(*((self.POLY, self.POLY_GRID) if poly
                                      else (self.SYSTEM, self.GRID)))
        assert want == ("basis x^2 overflowed at x=-1e+200" if poly
                        else "basis exp(800x) overflowed at x=0.9")
        run = {"support-poly": lambda: build_support(self.POLY, F_CUBE, (0.0, 1.0),
                                                     self.POLY_GRID),
               "support": lambda: build_support(self.SYSTEM, F_EXP, (0.0,), self.GRID),
               "theorem2": lambda: scan_theorem2(self.SYSTEM, F_EXP, (0.0,), self.GRID),
               "definition": lambda: verify_definition(self.SYSTEM, F_EXP, (-0.5, 0.0),
                                                       self.GRID)}
        with pytest.raises(DomainError) as info:
            run[route]()
        assert str(info.value) == want

    @pytest.mark.parametrize("route", ["theorem2", "definition"])
    @pytest.mark.parametrize("bad, error", [(0.8, SourceEvalError), (0.9, SourceEvalError),
                                            (0.95, DomainError)])
    def test_f_error_up_to_the_overflow_point_wins(self, route, bad, error):
        def f(x):
            if x == bad:
                raise ValueError("no value here")
            return math.exp(x)
        f = CallableSource(f)
        with pytest.raises(error):
            if route == "theorem2":
                scan_theorem2(self.SYSTEM, f, (0.0,), self.GRID)
            else:
                verify_definition(self.SYSTEM, f, (-0.5, 0.0), self.GRID)

    def test_earlier_degeneracy_wins(self):
        # (1, x^2, e^(800 x)) with the knots 0.3 and 0.6 degenerates at -0.3,
        # where x^2 takes its value at the first knot.
        system = ChebyshevSystem((BasisFunction("monomial", 0), BasisFunction("monomial", 2),
                                  BasisFunction("exp", 800.0)), Interval(-1.0, 1.0))
        grid = [j / 10 for j in range(-9, 10)]
        assert self.per_point_error(system, grid).endswith("at x=0.9")
        with pytest.raises(NearSingularError, match=r"degenerated at \(-0\.3, "):
            scan_theorem2(system, F_EXP, (0.3, 0.6), grid)
        without = [x for x in grid if x != -0.3]
        with pytest.raises(DomainError, match=r"overflowed at x=0\.9$"):
            scan_theorem2(system, F_EXP, (0.3, 0.6), without)


def reference_zero_tested(det, values, bounds, rows):
    """The first point whose product fails sign_of's zero test at its own
    scale, one point at a time."""
    for j, value in enumerate(values):
        scale = math.prod(max(b, abs(row[j])) for b, row in zip(bounds, rows))
        if sign_of(det * value, scale) == "0":
            return j
    return None


class TestZeroTestOverPoints:
    """Theorem 2's zero test over all the points at once finds the point
    that sign_of finds one point at a time, NaN included."""

    ENTRIES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
        [0.0, -0.0, 1e-300, -3e-14, 1e-15, math.nan, math.inf, 5e-324]), st.floats())

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-1e3, 1e3), st.integers(1, 12), st.integers(1, 3), st.data())
    def test_agrees_with_sign_of_point_by_point(self, det, m, k, data):
        values = data.draw(st.lists(self.ENTRIES, min_size=m, max_size=m))
        rows = data.draw(st.lists(st.lists(self.ENTRIES, min_size=m, max_size=m),
                                  min_size=k, max_size=k + 1))
        bounds = data.draw(st.lists(st.floats(0.0, 1e3), min_size=k, max_size=k))
        assert _zero_tested(det, values, bounds, rows) == \
            reference_zero_tested(det, values, bounds, rows)

    def test_nan_first_in_a_row_does_not_hide_a_larger_entry(self):
        # The NaN entry gives its point a NaN scale, which passes; the
        # point of scale 1e10 is zero.
        rows = [[math.nan, 1e10]]
        assert _zero_tested(1.0, [1.0, 1e-7], [1.0], rows) == 1
        assert reference_zero_tested(1.0, [1.0, 1e-7], [1.0], rows) == 1

    def test_empty(self):
        assert _zero_tested(1.0, [], [1.0, 1.0], [[], []]) is None


@contextlib.contextmanager
def point_by_point():
    """The pointwise routes one point at a time: a combination over more
    than one point raises, so ``walk_values`` takes its loop, and evaluates
    the target and the basis at each point alone."""
    at_rows = OmegaCombination.at_rows

    def one_point(self, rows, xs):
        if len(xs) > 1:
            raise RuntimeError("no bulk evaluation")
        return at_rows(self, rows, xs)

    with mock.patch.object(OmegaCombination, "at_rows", one_point):
        yield


class TestBulkAndPointPaths:
    """The pointwise routes give the same floats in bulk as point by point."""

    SYSTEMS = [polynomial_system(2, Interval(-1.0, 1.0)), polynomial_system(3, Interval(-1.0, 1.0)),
               polynomial_system(4, Interval(-1.0, 1.0)),
               exponential_system((0.0, 1.0, 2.0), Interval(-1.0, 1.0))]
    TARGETS = [F_EXP, F_CUBE, F_NEG_CUBE, ExpressionSource("sin"),
               TableSource(grid_on(-1.0, 1.0, 57), [math.cos(3 * x) for x in grid_on(-1, 1, 57)])]

    @staticmethod
    def grid_and_knots(data, system, f):
        if f.is_table:  # a table knows f at its abscissae only
            grid = list(f.xs)
            knots = sorted(data.draw(st.lists(st.sampled_from(grid[4:-4]), min_size=system.n - 1,
                                              max_size=system.n - 1, unique=True)))
            return grid, tuple(knots)
        grid = grid_on(-1.0, 1.0, data.draw(st.integers(3, 90)))
        return grid, data.draw(separated_points_strategy(system.n - 1, -0.9, 0.9, sep=0.05))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SYSTEMS), st.sampled_from(TARGETS), st.data())
    def test_theorem2(self, system, f, data):
        grid, knots = self.grid_and_knots(data, system, f)
        bulk = scan_theorem2(system, f, knots, grid)
        with point_by_point():
            assert repr(bulk) == repr(scan_theorem2(system, f, knots, grid))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SYSTEMS), st.sampled_from(TARGETS), st.data())
    def test_definition(self, system, f, data):
        grid, knots = self.grid_and_knots(data, system, f)
        nodes = sorted(set(knots) | {grid[1]})
        assume(len(nodes) == system.n)

        def outcome():
            # grid[1] may lie closer to a knot than the minimum separation,
            # which both paths reject with the same error.
            try:
                return repr(verify_definition(system, f, nodes, grid))
            except DegenerateInputError as exc:
                return repr(exc)

        bulk = outcome()
        with point_by_point():
            assert bulk == outcome()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SYSTEMS), st.sampled_from(TARGETS), st.data(),
           st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_sign_pattern(self, system, f, data, coefficients):
        from chebconvex.support import verify_sign_pattern
        grid, knots = self.grid_and_knots(data, system, f)
        omega = OmegaCombination(system, tuple(coefficients[:system.n]))
        bulk = verify_sign_pattern(system, f, omega, knots, grid)
        with point_by_point():
            assert repr(bulk) == repr(verify_sign_pattern(system, f, omega, knots, grid))


class TestKeywordOnlyOptions:
    """Budget, seed, h0 and the tolerances are keyword-only: a stray
    positional option is refused where the call is made."""

    @staticmethod
    def positional(name):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        grid = grid_on(-2.0, 3.0, 21)
        knots = (0.0, 1.0)
        omega = constrained_interpolate(system, knots, F_CUBE, 2.0)
        return {"certify_theorem_a": (system, F_CUBE, grid),
                "certify_corollary1": (system, F_CUBE, grid),
                "classify_on_grid": (system, grid),
                "scan_theorem2": (system, F_CUBE, knots, grid),
                "verify_definition": (system, F_CUBE, (-1.0, 0.0, 1.0), grid),
                "verify_sign_pattern": (system, F_CUBE, omega, knots, grid),
                "build_support": (system, F_CUBE, knots, grid),
                "estimate_cn": (system, F_CUBE, knots)}[name]

    @pytest.mark.parametrize("name, stray", [
        ("certify_theorem_a", 100), ("certify_corollary1", 100),
        ("classify_on_grid", 100), ("scan_theorem2", 1e-9),
        ("verify_definition", 1e-9), ("verify_sign_pattern", 1e-9),
        ("build_support", 1e-9), ("estimate_cn", 0.01),
    ])
    def test_a_stray_positional_option_raises(self, name, stray):
        import chebconvex
        args = self.positional(name)
        with pytest.raises(TypeError, match=rf"^{name}\(\) takes {len(args)} positional "
                                            rf"arguments but {len(args) + 1} were given$"):
            getattr(chebconvex, name)(*args, stray)
