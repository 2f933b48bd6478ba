import bisect
import math
import random
from collections import Counter

import pytest

from chebconvex import (CERTIFIED, VIOLATED, BasisFunction, CallableSource,
                        ChebyshevSystem, ExpressionSource, Interval,
                        NearSingularError, PreconditionError, SourceEvalError,
                        TableSource, build_support, certify_corollary1,
                        certify_theorem_a,
                        cosine_sine_system, d_det, exponential_system, gdd,
                        negated_polynomial_system, parse_function,
                        parse_system, polynomial_system, scan_theorem2,
                        verify_definition)
from chebconvex.convexity import THEOREM2_BATCH
from chebconvex.determinants import det_and_scale
from chebconvex.sampling import ordered_index_tuples

from conftest import (F_CUBE, F_EXP, F_NEG_CUBE, F_SQUARE, draw_separated,
                      grid_on, minor_rows)


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
        assert a.tuples_checked == 3000

    def test_basis_evaluated_once_per_grid_point(self, basis_calls):
        grid = grid_on(-1, 1, 30)
        certify_theorem_a(polynomial_system(3), F_CUBE, grid)
        assert basis_calls == Counter(grid)

    def test_sampled_scan_matches_sampler_order_reference(self):
        """The sampled tuples are scanned sorted; minimum, witness and counts
        equal those of a scan in sampler order with the same tie-break."""

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
        cases = [(polynomial_system(n), ExpressionSource(kind, (n,)))
                 for n in (2, 3, 4) for kind in ("monomial", "negmonomial")]
        cases.append((exponential_system([0.0, 1.0]), ExpressionSource("exp", (-1.0,))))
        verdicts = set()
        for system, f in cases:
            for _ in range(3):
                m = rng.randint(system.n + 6, 24)
                grid = [float(x) for x in grid_on(-1, 1, m)]
                budget = rng.randint(m, math.comb(m, system.n + 1) - 1)
                seed = rng.randrange(1000)
                cert = certify_theorem_a(system, f, grid, budget=budget, seed=seed)
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
        # With one knot, one of the two segments spans more than one batch.
        grid = grid_on(-1.0, 2.0, 2 * THEOREM2_BATCH + 151)
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
        reference = [(x, gdd(system, sorted((*knots, x)), f).value) for x in xs]
        assert repr(report.scan) == repr(tuple(reference))

    @pytest.mark.parametrize("basis, knots, message", [
        ("monomial 1\nmonomial 0", (0.0,),
         "truncated-system collocation determinant degenerated at (0.0,)"),
        ("monomial 1\nmonomial 1\nmonomial 0", (-0.5, 0.5),
         "full-system collocation determinant degenerated at (-0.9, -0.5, 0.5)"),
    ])
    def test_degenerate_determinants_named_as_gdd_names_them(self, basis, knots,
                                                             message):
        system = parse_system("interval -1 1\n" + basis)
        grid = [j / 10 for j in range(-9, 10)]
        with pytest.raises(NearSingularError) as err:
            scan_theorem2(system, parse_function("monomial:3"), knots, grid)
        assert str(err.value) == message

    def test_first_failing_point_decides_the_error(self):
        # Right of the knot 0 the truncated determinant x vanishes at once;
        # an evaluation error counts only at a point before that one.
        system = parse_system("interval -1 1\nmonomial 1\nmonomial 0")
        grid = [j / 10 for j in range(-9, 10)]
        for bad, error in ((0.5, NearSingularError), (-0.5, SourceEvalError),
                           (0.1, SourceEvalError)):
            def f(x, bad=bad):
                if x == bad:
                    raise ValueError("no value here")
                return x ** 3
            with pytest.raises(error):
                scan_theorem2(system, CallableSource(f), (0.0,), grid)

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
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid_on(-2, 3, 40))) == (
            "truncated system (-1, -x, -x^2) on [-2, 3] is not positive on the grid: "
            "verdict negative, witness None")

    def test_system_failure_is_raised_before_the_truncation_failure(self):
        # (x, 1, x^2) and its truncation (x, 1) are both negative
        system = ChebyshevSystem((BasisFunction("monomial", 1), BasisFunction("monomial", 0),
                                  BasisFunction("monomial", 2)), self.IV)
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid_on(-2, 3, 40))) == (
            "system (x, 1, x^2) on [-2, 3] is not positive on the grid: "
            "verdict negative, witness None")

    def test_non_chebyshev_truncation(self):
        # cos changes sign at pi/2, so its first window past it has a new sign
        system, grid = cosine_sine_system(), grid_on(0.1, 3.0, 30)
        want = ("truncated system (cos) on (0, 3.14159) is not positive on the grid: "
                "verdict non-chebyshev, witness (1.5999999999999999,)")
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid)) == want
        assert self.message(lambda: build_support(system, F_CUBE, (1.0,), grid)) == want

    def test_windows_at_the_zero_test_fall_back_to_the_kernel(self):
        # On this fine grid some windows of (1, x, x^2, x^3) come within the
        # zero test; the first of them that the kernel calls zero fails.
        system = polynomial_system(4, self.IV)
        assert self.message(lambda: build_support(system, F_CUBE, (0.0, 1.0, 2.0),
                                                  grid_on(-2, 3, 700))) == (
            "system (1, x, x^2, x^3) on [-2, 3] is not positive on the grid: "
            "verdict non-chebyshev, witness (2.184549356223176, 2.19170243204578, "
            "2.198855507868384, 2.206008583690987)")
        assert self.message(lambda: certify_corollary1(system, F_CUBE, grid_on(-2, 3, 1000),
                                                       budget=10)) == (
            "system (1, x, x^2, x^3) on [-2, 3] is not positive on the grid: "
            "verdict non-chebyshev, witness (-2.0, -1.994994994994995, "
            "-1.98998998998999, -1.984984984984985)")
