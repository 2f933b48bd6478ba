import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, BasisFunction, ChebyshevSystem,
                        DegenerateInputError, DomainError, ExpressionSource,
                        Interval, SourceEvalError,
                        cosine_sine_system, d_det, named_system,
                        negated_polynomial_system, polynomial_system,
                        uniform_grid, v_det)
from chebconvex import determinants
from chebconvex.convexity import require_positive
from chebconvex.determinants import (EPS, SWEEP_MARGIN, SWEEP_MAX_ORDER,
                                     TAU_FACTOR, _sweep_error, check_points,
                                     det_and_scale, first_failing_window,
                                     minor_scan, sign_of, solve_with_det,
                                     sweep_signs, window_sweep)
from chebconvex.errors import NearSingularError
from chebconvex.sampling import ordered_index_tuples

from conftest import (F_CUBE, F_SQUARE, det_bruteforce, draw_separated, grid_on,
                      minor_rows, separated_points_strategy)


class TestCheckPoints:
    def test_keeps_callers_order(self):
        system = polynomial_system(3)
        for pts in ((0.0, 1.0, 2.0), [1, 0.0, 2.0], iter((2.0, 0.0, 1.0))):
            got = check_points(system, pts, 3)
            assert type(got) is tuple and all(type(x) is float for x in got)
        assert check_points(system, [1, 0.0, 2.0], 3) == (1.0, 0.0, 2.0)

    def test_rejects_duplicates_and_nonfinite(self):
        # The tuples also have the wrong size and lie outside the interval:
        # the tuple checks come first.
        system = polynomial_system(2, Interval(0.0, 1.0))
        with pytest.raises(DegenerateInputError, match="coincident points"):
            check_points(system, (5.0, 6.0, 6.0), 2)
        with pytest.raises(ArgumentError, match="must not be empty"):
            check_points(system, (), 2)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ArgumentError, match="non-finite point"):
                check_points(system, (5.0, bad, 6.0), 2)


class TestKernel:
    def test_empty_matrix_is_one(self):
        assert det_and_scale([]) == (1.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_matches_bruteforce(self, n, seed):
        rng = random.Random(seed)
        rows = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        value, scale = det_and_scale(rows)
        oracle = det_bruteforce(rows)
        assert value == pytest.approx(oracle, rel=1e-10, abs=1e-12 * max(scale, 1))

    def test_scale_is_row_maxnorm_product(self):
        rows = [[1.0, -3.0], [0.5, 0.25]]
        _, scale = det_and_scale(rows)
        assert scale == 3.0 * 0.5

    def test_solve_matches_numpy(self):
        rng = random.Random(4)
        for n in (1, 2, 3, 5):
            a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            b = [rng.uniform(-1, 1) for _ in range(n)]
            x, sv = solve_with_det(a, b)
            np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)
            assert sv.value == pytest.approx(float(np.linalg.det(np.array(a))), rel=1e-9)

    def test_solve_rejects_singular(self):
        with pytest.raises(NearSingularError):
            solve_with_det([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])

    def test_exact_zero_is_zero_at_nan_scale(self):
        assert sign_of(0.0, math.nan) == "0"
        assert sign_of(-0.0, math.nan) == "0"
        assert sign_of(-1.0, math.nan) == "-"  # nonzero values keep their sign
        assert sign_of(0.0, math.inf) == sign_of(0.0, 0.0) == "0"

    def test_solve_rejects_zero_pivot_at_nan_scale(self):
        # The first column's pivot is an exact zero; the NaN entry makes the
        # scale NaN, which must not hide the singularity.
        with pytest.raises(NearSingularError):
            solve_with_det([[0.0, 1.0], [math.nan, 2.0]], [1.0, 1.0])


def eliminate_oracle(a, n, width):
    """The in-place, row-major elimination that minor_scan replaced: the
    first n columns of the n x width matrix a are eliminated, the rest
    carried along; returns (det, scale)."""
    scale = 1.0
    for r in a:
        scale *= max(map(abs, r[:n]))
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            return 0.0, scale
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pivot = a[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor != 0.0:
                for c in range(col + 1, width):
                    a[r][c] -= factor * a[col][c]
    return det, scale


def solve_oracle(rows, rhs):
    n = len(rows)
    a = [list(r) + [float(b)] for r, b in zip(rows, rhs)]
    det, scale = eliminate_oracle(a, n, n + 1)
    if abs(det) <= 64 * 2.0 ** -52 * scale:
        return None, det, scale
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x, det, scale


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
                    st.builds(lambda m, e: m * 10.0 ** e,
                              st.floats(-1, 1, allow_nan=False), st.integers(-8, 8)))


@st.composite
def columns_and_tuples(draw):
    """Columns with exact zeros, duplicates and mixed scales, and their
    k-tuples in lexicographic, window, sampler, sorted sampler (the order of
    sampled scans) or shuffled order."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k, k + 5))
    vecs = [tuple(draw(st.lists(ENTRIES, min_size=k, max_size=k))) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        vecs[draw(st.integers(0, m - 1))] = vecs[draw(st.integers(0, m - 1))]
    order = draw(st.sampled_from(["lex", "windows", "sampled", "sorted-sampled",
                                  "shuffled"]))
    if order == "lex":
        tuples = list(itertools.combinations(range(m), k))
    elif order == "windows":
        tuples = ordered_index_tuples(m, k, windows_only=True)
    elif order in ("sampled", "sorted-sampled"):
        budget = max(1, math.comb(m, k) // 2)
        tuples = ordered_index_tuples(m, k, budget=budget, seed=draw(st.integers(0, 99)))
        if order == "sorted-sampled":
            tuples = sorted(tuples)
    else:
        tuples = draw(st.permutations(list(itertools.combinations(range(m), k))))
    return vecs, k, tuples


class TestMinorScan:
    @settings(max_examples=300, deadline=None)
    @given(columns_and_tuples())
    def test_bit_identical_to_one_minor_at_a_time(self, case):
        vecs, k, tuples = case
        got = list(minor_scan(vecs, tuples))
        assert len(got) == len(tuples)
        for t, pair in zip(tuples, got):
            rows = minor_rows(vecs, t, k)
            assert repr(pair) == repr(det_and_scale(rows))
            assert repr(pair) == repr(eliminate_oracle([list(r) for r in rows], k, k))

    def test_vandermonde_scan_with_repeated_tuples(self):
        vecs = [tuple(x ** i for i in range(4)) for x in (-1.0, -0.3, 0.0, 0.2, 0.9, 1.5)]
        tuples = list(itertools.combinations(range(6), 4))
        tuples = tuples + tuples[::-1] + [tuples[3]] * 3
        for t, pair in zip(tuples, minor_scan(vecs, tuples)):
            rows = minor_rows(vecs, t, 4)
            assert repr(pair) == repr(eliminate_oracle([list(r) for r in rows], 4, 4))

    def test_exact_zero_pivot_keeps_the_scale(self):
        vecs = [(1.0, 2.0), (2.0, 4.0), (0.0, 3.0)]
        assert list(minor_scan(vecs, [(0, 1), (0, 2), (1, 2)])) == [
            (0.0, 2.0 * 4.0), (3.0, 1.0 * 3.0), (6.0, 2.0 * 4.0)]

    def test_lazy(self):
        drawn = []

        def tuples():
            for t in itertools.combinations(range(8), 3):
                drawn.append(t)
                yield t

        vecs = [(1.0, x, x * x) for x in range(8)]
        scan = minor_scan(vecs, tuples())
        for r in range(1, 6):
            next(scan)
            assert len(drawn) == r

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000), st.booleans())
    def test_solve_bit_identical_to_oracle(self, n, seed, repeat_row):
        rng = random.Random(seed)
        rows = [[rng.choice([0.0, rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)])
                 for _ in range(n)] for _ in range(n)]
        if repeat_row and n > 1:
            rows[-1] = list(rows[0])
        rhs = [rng.uniform(-1, 1) for _ in range(n)]
        x_want, det, scale = solve_oracle(rows, rhs)
        if x_want is None:
            with pytest.raises(NearSingularError):
                solve_with_det(rows, rhs)
        else:
            x, sv = solve_with_det(rows, rhs)
            assert repr((x, sv.value, sv.scale)) == repr((x_want, det, scale))


SWEEP_SYSTEMS = ("poly:2", "poly:3", "poly:4", "poly:5", "poly:6", "negpoly:3",
                 "exp:0,1,2.5", "exp:-1,0,1,2", "cossin")


def window_minors(cols, k):
    """(det, scale) of each window of k columns, one minor_scan per window."""
    return [next(minor_scan([c[:k] for c in cols[i:i + k]], [tuple(range(k))]))
            for i in range(len(cols) - k + 1)]


def reference_failure(signs):
    """The first window's sign and the first window that vanishes or differs."""
    first = signs[0] if signs else None
    for i, sign in enumerate(signs):
        if sign == "0" or sign != first:
            return first, i
    return first, None


def exact_det(cols):
    """The determinant of square columns in exact rational arithmetic."""
    a = [[Fraction(x) for x in c] for c in cols]
    det = Fraction(1)
    for i in range(len(a)):
        p = next((r for r in range(i, len(a)) if a[r][i]), None)
        if p is None:
            return Fraction(0)
        if p != i:
            a[i], a[p], det = a[p], a[i], -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


@st.composite
def swept_columns(draw):
    """Basis columns of a system, its basis maybe shuffled, on a uniform,
    random or fine grid. A fine grid holds its centre (x = 0 for the
    polynomials, pi/2 where cos vanishes, pi past which (cos, sin) turns)
    and reaches spacings whose windows come within the zero test."""
    spec = draw(st.sampled_from(SWEEP_SYSTEMS))
    hi = 2 * math.pi if spec == "cossin" else 3.0
    interval = Interval(0.0 if spec == "cossin" else -2.0, hi, hi_open=spec == "cossin")
    system = named_system(spec, interval)
    if draw(st.booleans()):
        system = ChebyshevSystem(tuple(draw(st.permutations(system.basis))), interval)
    m = draw(st.integers(max(system.n, 2), 150))
    kind = draw(st.sampled_from(["uniform", "random", "fine"]))
    if kind == "uniform":
        grid = uniform_grid(interval, m)
    elif kind == "random":
        grid = sorted(set(draw(st.lists(st.floats(interval.lo, min(hi, 6.28)),
                                        min_size=m, max_size=m))))
    else:
        centre = draw(st.sampled_from([0.0, math.pi / 2, math.pi])
                      | st.floats(interval.lo, min(hi, 6.28)))
        h = 10.0 ** draw(st.floats(-4, -1))
        grid = sorted({centre + (i - m // 2) * h for i in range(m)} | {centre})
        grid = [x for x in grid if interval.lo <= x < hi]
    assume(len(grid) >= system.n)
    return [system.evaluate_basis(x) for x in grid], system.n


class TestWindowSweep:
    def check(self, cols, n):
        for k, (dets, scales) in enumerate(window_sweep(cols, n), 1):
            minors = window_minors(cols, k)
            assert [repr(s) for s in scales] == [repr(s) for _, s in minors]
            signs = [sign_of(*minor) for minor in minors]
            for swept, sign in zip(sweep_signs(k, dets, scales), signs):
                assert swept in ("", sign)
            assert first_failing_window(cols, k, dets, scales) == reference_failure(signs)

    @settings(max_examples=150, deadline=None)
    @given(swept_columns())
    def test_decisions_match_the_kernel_on_basis_columns(self, case):
        self.check(*case)

    @settings(max_examples=150, deadline=None)
    @given(columns_and_tuples())
    def test_decisions_match_the_kernel_on_mixed_scale_columns(self, case):
        vecs, k, _ = case
        self.check(vecs, k)

    @settings(max_examples=100, deadline=None)
    @given(columns_and_tuples())
    def test_error_within_the_bound(self, case):
        """Every window the sweep vouches for (values in range, no zero
        pivot, no growth past the bound) is within beta_k * eps * scale of
        its exact determinant."""
        vecs, n, _ = case
        for k, (dets, scales) in enumerate(window_sweep(vecs, n), 1):
            for i, (det, scale) in enumerate(zip(dets, scales)):
                if not math.isnan(det):
                    exact = exact_det([v[:k] for v in vecs[i:i + k]])
                    assert abs(Fraction(det) - exact) <= Fraction(_sweep_error(k) * EPS * scale)

    def test_margin_fits_the_bound_up_to_four_points(self):
        room = (SWEEP_MARGIN - 2) * TAU_FACTOR
        assert SWEEP_MAX_ORDER == 4
        assert _sweep_error(4) * EPS <= room < _sweep_error(5) * EPS

    def test_undecided_windows_go_to_the_kernel(self):
        cases = [
            # windows within the zero test's margin
            (polynomial_system(4), grid_on(-2, 3, 700)),
            # cos(1.6) = -0.03: a large multiplier, then growth past the bound
            (cosine_sine_system(), grid_on(0.1, 3.0, 30)),
            # exact zero pivots: x = 0 under the basis (x, 1)
            (ChebyshevSystem((BasisFunction("monomial", 1), BasisFunction("monomial", 0))),
             grid_on(-1, 1, 21)),
            # more than SWEEP_MAX_ORDER points
            (polynomial_system(5), grid_on(-1, 1, 12)),
        ]
        for system, grid in cases:
            cols = [system.evaluate_basis(x) for x in grid]
            dets, scales = list(window_sweep(cols, system.n))[-1]
            assert "" in sweep_signs(system.n, dets, scales)
            self.check(cols, system.n)

    def test_clearly_positive_grid_needs_no_kernel(self, monkeypatch):
        system = polynomial_system(3, Interval(-2.0, 3.0))
        grid = grid_on(-2, 3, 2000)
        cols = [system.evaluate_basis(x) for x in grid]

        def kernel(*args):
            raise AssertionError("minor_scan ran")

        monkeypatch.setattr(determinants, "minor_scan", kernel)
        require_positive(system, grid, cols, True)


class TestVDet:
    def test_affine_at_0_1(self):
        sv = v_det(polynomial_system(2), (0.0, 1.0))
        assert sv.value == 1.0 and sv.sign == "+"

    def test_quadratic_at_0_1_2(self):
        # Vandermonde product (1-0)(2-0)(2-1) = 2
        sv = v_det(polynomial_system(3), (0.0, 1.0, 2.0))
        assert sv.value == pytest.approx(2.0, rel=1e-12)

    def test_negated_pair_is_gap(self):
        rng = random.Random(1)
        for _ in range(20):
            x1, x2 = draw_separated(rng, 2)
            sv = v_det(negated_polynomial_system(2), (x1, x2))
            assert sv.sign == "+"
            assert sv.value == pytest.approx(x2 - x1, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(separated_points_strategy(4, sep=1e-2))
    def test_vandermonde_product_formula(self, pts):
        sv = v_det(polynomial_system(4), pts)
        product = 1.0
        for i in range(4):
            for j in range(i + 1, 4):
                product *= pts[j] - pts[i]
        assert sv.value == pytest.approx(product, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(separated_points_strategy(4, sep=0.05), st.integers(0, 5),
           st.integers(0, 5))
    def test_antisymmetry_under_column_swap(self, pts, i, j):
        i, j = i % 4, j % 4
        if i == j:
            return
        swapped = list(pts)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        system = polynomial_system(4)
        a = v_det(system, pts).value
        b = v_det(system, swapped).value
        assert b == pytest.approx(-a, rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ArgumentError):
            v_det(polynomial_system(3), (0.0, 1.0))

    def test_too_close_points(self):
        system = polynomial_system(2, Interval(-1.0, 1.0))
        with pytest.raises(DegenerateInputError):
            v_det(system, (0.0, 1e-12))

    def test_point_outside_interval(self):
        with pytest.raises(DomainError):
            v_det(polynomial_system(2, Interval(0.0, 1.0)), (0.0, 2.0))

    def test_accepts_any_point_sequence(self):
        for pts in ((0.0, 1.0, 2.0), [0, 1, 2], iter([0.0, 1.0, 2.0])):
            assert v_det(polynomial_system(3), pts).value == pytest.approx(2.0)

    def test_zero_scale_classifies_as_zero(self):
        from chebconvex import BasisFunction, ChebyshevSystem
        system = ChebyshevSystem((BasisFunction("const", 0.0),
                                  BasisFunction("monomial", 1)))
        sv = v_det(system, (0.5, 1.5))
        assert sv.sign == "0" and sv.value == 0.0 and sv.scale == 0.0


class TestDDet:
    def test_affine_with_square(self):
        sv = d_det(polynomial_system(2), (0.0, 1.0, 2.0), F_SQUARE)
        oracle = det_bruteforce([[1, 1, 1], [0, 1, 2], [0, 1, 4]])
        assert oracle == 2.0
        assert sv.value == pytest.approx(2.0, rel=1e-12)

    def test_quadratic_with_cube_is_vandermonde(self):
        sv = d_det(polynomial_system(3), (0.0, 1.0, 2.0, 3.0), F_CUBE)
        assert sv.value == pytest.approx(12.0, rel=1e-12)

    def test_f_in_span_vanishes(self):
        system = polynomial_system(3)
        for form, k in (("monomial", 0), ("monomial", 1), ("monomial", 2)):
            f = ExpressionSource(form, (k,))
            assert d_det(system, (0.0, 0.5, 1.5, 2.0), f).sign == "0"
        combo = ExpressionSource("poly", (2.0, -1.0, 0.5))
        assert d_det(system, (-1.0, 0.0, 1.0, 2.0), combo).sign == "0"

    @settings(max_examples=30, deadline=None)
    @given(separated_points_strategy(3, sep=0.05),
           st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_linearity_in_f(self, pts, a, b):
        from chebconvex import CallableSource
        system = polynomial_system(2)
        f, g = F_SQUARE, F_CUBE
        combined = CallableSource(lambda x: a * f(x) + b * g(x))
        lhs = d_det(system, pts, combined).value
        rhs = a * d_det(system, pts, f).value + b * d_det(system, pts, g).value
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)

    def test_antisymmetry(self):
        system = polynomial_system(2)
        a = d_det(system, (0.0, 1.0, 2.0), F_CUBE).value
        b = d_det(system, (2.0, 1.0, 0.0), F_CUBE).value
        assert b == pytest.approx(-a, rel=1e-12)

    def test_source_failure_becomes_source_error(self):
        from chebconvex import CallableSource
        bad = CallableSource(lambda x: 1.0 / (x - 1.0))
        with pytest.raises(SourceEvalError):
            d_det(polynomial_system(2), (0.0, 1.0, 2.0), bad)
