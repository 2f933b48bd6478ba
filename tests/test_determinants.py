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
from chebconvex.determinants import (EPS, SWEEP_MAX_ORDER, SWEEP_RANGE,
                                     TAU_FACTOR, ScaleBound, Windows, _sweep_error,
                                     check_points, det_and_scale, exact_sign,
                                     minor_scan, sign_of, solve_with_det,
                                     sweep_signs, window_sweep)
from chebconvex.errors import NearSingularError
from chebconvex.sampling import ordered_index_tuples
from chebconvex.systems import classify_on_grid

from conftest import (F_CUBE, F_SQUARE, det_bruteforce, draw_separated, grid_on,
                      minor_rows, separated_points_strategy, twin)


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


# Non-finite, subnormal and huge entries make non-finite pivots and factors.
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.nan, math.inf,
                                     -math.inf, 5e-324, -5e-324, 1e300, -1e300]),
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


def folded_scale(vecs, t):
    """The scale the kernel once folded for each tuple: the row max-norms
    folded column by column with ``max``, then multiplied by ``math.prod``."""
    maxes = [*map(abs, vecs[t[0]])]
    for j in t[1:]:
        maxes = [*map(max, maxes, map(abs, vecs[j]))]
    return math.prod(maxes)


class TestMinorScan:
    @settings(max_examples=300, deadline=None)
    @given(columns_and_tuples())
    def test_bit_identical_to_one_minor_at_a_time(self, case):
        vecs, k, tuples = case
        got = list(minor_scan(vecs, tuples))
        assert len(got) == len(tuples)
        for t, det in zip(tuples, got):
            rows = minor_rows(vecs, t, k)
            want = eliminate_oracle([list(r) for r in rows], k, k)
            assert repr((det, folded_scale(vecs, t))) == repr(det_and_scale(rows))
            assert repr((det, folded_scale(vecs, t))) == repr(want)

    def test_vandermonde_scan_with_repeated_tuples(self):
        vecs = [tuple(x ** i for i in range(4)) for x in (-1.0, -0.3, 0.0, 0.2, 0.9, 1.5)]
        tuples = list(itertools.combinations(range(6), 4))
        tuples = tuples + tuples[::-1] + [tuples[3]] * 3
        for t, det in zip(tuples, minor_scan(vecs, tuples)):
            rows = minor_rows(vecs, t, 4)
            assert repr(det) == repr(eliminate_oracle([list(r) for r in rows], 4, 4)[0])

    @staticmethod
    def assert_matches_oracle(vecs, tuples):
        got = list(minor_scan(vecs, tuples))
        assert len(got) == len(tuples)
        for t, det in zip(tuples, got):
            k = len(t)
            want = eliminate_oracle([list(r) for r in minor_rows(vecs, t, k)], k, k)
            assert repr((det, folded_scale(vecs, t))) == repr(want), t
        return got

    def test_negative_determinant_times_exact_zero_is_zero(self):
        # Step 0 pivots on -1, so the prefix determinant is negative; the
        # last entry is an exact zero, with no factor and then with one.
        vecs = [(-1.0, 0.0), (3.0, 0.0), (-1.0, 1.0), (2.0, -2.0)]
        got = self.assert_matches_oracle(vecs, [(0, 1), (2, 3)])
        assert [repr(det) for det in got] == ["0.0", "0.0"]
        vecs = [(-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (5.0, 7.0, 0.0), (1.0, 2.0, 3.0)]
        got = self.assert_matches_oracle(vecs, [(0, 1, 2), (0, 1, 3)])
        assert repr(got[0]) == "0.0" and got[1] == -3.0

    def test_zero_pivot_at_the_second_last_step(self):
        # After step 0, column 1 is zero in rows 1 and 2: every tuple with
        # the prefix (0, 1) is singular, each at its own full scale.
        vecs = [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 4.0, 0.5), (3.0, -1.0, 8.0),
                (0.0, 0.5, 2.0)]
        tuples = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)]
        got = self.assert_matches_oracle(vecs, tuples)
        assert got[:3] == [0.0, 0.0, 0.0]
        assert [folded_scale(vecs, t) for t in tuples[:3]] == [
            2.0 * 4.0 * 0.5, 3.0 * 1.0 * 8.0, 2.0 * 0.5 * 2.0]
        assert got[3] != 0.0

    def test_row_swap_at_the_second_last_step(self):
        # Column 1 reduced by step 0 is larger in row 2 than in row 1.
        vecs = [(1.0, 0.0, 0.0), (0.0, 1.0, 3.0), (2.0, 5.0, 7.0), (1.0, -1.0, 0.25),
                (4.0, 0.0, 0.0)]
        self.assert_matches_oracle(vecs, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])

    def test_prefix_that_returns_after_another(self):
        vecs = [tuple(x ** i for i in range(4)) for x in (-1.0, -0.5, 0.1, 0.3, 0.8, 2.0)]
        a, b = [(0, 1, 2, j) for j in (3, 4, 5)], [(0, 1, 3, j) for j in (4, 5)]
        self.assert_matches_oracle(vecs, a + b + a + [(0, 2, 3, 4)] + a[::-1])

    @pytest.mark.parametrize("k, m", [(2, 9), (3, 9), (4, 9), (5, 10)])
    def test_one_pivot_search_per_prefix(self, monkeypatch, k, m):
        """In a lexicographic scan, a tuple that only changes its last index
        takes no pivot search of its own."""
        calls = []

        def counted(*args):
            calls.append(args[1])
            return pivot_step(*args)

        pivot_step = determinants._pivot_step
        monkeypatch.setattr(determinants, "_pivot_step", counted)
        vecs = [tuple(x ** i for i in range(k)) for x in range(1, m + 1)]
        tuples = list(itertools.combinations(range(m), k))
        assert len(list(minor_scan(vecs, tuples))) == len(tuples)
        prefixes = {t[:d] for t in tuples for d in range(1, k)}
        assert len(calls) <= len(prefixes)

    def test_exact_zero_pivot_keeps_the_scale(self):
        vecs = [(1.0, 2.0), (2.0, 4.0), (0.0, 3.0)]
        tuples = [(0, 1), (0, 2), (1, 2)]
        assert list(minor_scan(vecs, tuples)) == [0.0, 3.0, 6.0]
        assert [ScaleBound(vecs).scale(t) for t in tuples] == [2.0 * 4.0, 1.0 * 3.0, 2.0 * 4.0]

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


@st.composite
def wide_columns(draw):
    """k-entry columns whose rows span 2^-100 to 2^100 in scale, some of
    them a few ulps from another column or equal to it (exactly singular
    tuples), and now and then one with a non-finite entry."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(k, k + 5))
    exponents = draw(st.lists(st.integers(-100, 100), min_size=k, max_size=k))
    entry = st.one_of(st.just(0.0), st.floats(-1, 1))
    vecs = [[math.ldexp(draw(entry), e) for e in exponents] for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        a, b, ulps = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(
            st.integers(-4, 4))
        vecs[b] = [x + ulps * math.ulp(x) for x in vecs[a]]
    if draw(st.integers(0, 9)) == 0:
        vecs[draw(st.integers(0, m - 1))][draw(st.integers(0, k - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    return [tuple(v) for v in vecs], k


class TestScaleBound:
    @settings(max_examples=300, deadline=None)
    @given(wide_columns())
    def test_bound_decides_the_zero_test_as_each_tuple_scale(self, case):
        vecs, k = case
        tuples = list(itertools.combinations(range(len(vecs)), k))
        bound = ScaleBound(vecs)
        for t, det in zip(tuples, minor_scan(vecs, tuples)):
            scale = folded_scale(vecs, t)
            assert repr((det, scale)) == repr(det_and_scale(minor_rows(vecs, t, k)))
            assert repr(bound.scale(t)) == repr(scale)
            assert not scale > bound.bound
            assert bound.sign(det, t) == sign_of(det, scale)

    def test_non_finite_entries_decide_nothing(self):
        assert ScaleBound([(1.0, 2.0), (math.nan, 1.0)]).bound == math.inf
        assert ScaleBound([(1e300, 1.0), (1.0, 1e300)]).bound == math.inf
        assert ScaleBound([(1.0, -3.0), (0.5, 2.0)]).bound == 1.0 * 3.0

    def test_vandermonde_scan_needs_no_tuple_scale(self, monkeypatch):
        # Every minor of a 17-point poly:4 grid clears the zero test at B.
        scales = []
        monkeypatch.setattr(ScaleBound, "scale", lambda self, t: scales.append(t))
        got = classify_on_grid(polynomial_system(4), grid_on(-2, 3, 17), budget=10_000)
        assert (got.coverage, got.verdict, scales) == ("exhaustive", "positive", [])


SWEEP_SYSTEMS = ("poly:2", "poly:3", "poly:4", "poly:5", "poly:6", "negpoly:3",
                 "exp:0,1,2.5", "exp:-1,0,1,2", "cossin")


def window_minors(cols, k):
    """(det, scale) of each window of k columns, one minor at a time."""
    return [det_and_scale(minor_rows(cols, range(i, i + k), k))
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
        windows = Windows(cols, n)
        for k, (dets, scales) in enumerate(window_sweep(cols, n), 1):
            minors = window_minors(cols, k)
            assert [repr(s) for s in scales] == [repr(s) for _, s in minors]
            signs = [sign_of(*minor) for minor in minors]
            for swept, sign in zip(sweep_signs(k, dets, scales), signs):
                assert swept in ("", sign)
            assert windows.first_failing(k) == reference_failure(signs)

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

    def test_max_order_is_the_largest_the_range_allows(self):
        # SWEEP_RANGE is 2^-a..2^a: k pivots of at most 2^(a+1) stay finite,
        # and a partial product below 2^-1022 stays under 3 tau.
        a = 96
        assert SWEEP_RANGE == (2.0 ** -a, 2.0 ** a)

        def fits(k):
            return (a + 1) * k < 1024 and (a + 1) * (k - 2) + a * k < 977

        assert SWEEP_MAX_ORDER == 6
        assert all(map(fits, range(1, 7))) and not fits(7)
        assert 2.0 ** (-1022 + (a + 1) * 4) < 3 * TAU_FACTOR * 2.0 ** (-6 * a)

    def test_undecided_windows_go_to_the_kernel(self):
        cases = [
            # windows within the threshold of the sweep
            (polynomial_system(4), grid_on(-2, 3, 700)),
            # cos(1.6) = -0.03: a large multiplier, then growth past the bound
            (cosine_sine_system(), grid_on(0.1, 3.0, 30)),
            # exact zero pivots: x = 0 under the basis (x, 1)
            (ChebyshevSystem((BasisFunction("monomial", 1), BasisFunction("monomial", 0))),
             grid_on(-1, 1, 21)),
            # more than SWEEP_MAX_ORDER points
            (polynomial_system(7), grid_on(-1, 1, 12)),
        ]
        for system, grid in cases:
            cols = [system.evaluate_basis(x) for x in grid]
            dets, scales = list(window_sweep(cols, system.n))[-1]
            assert "" in sweep_signs(system.n, dets, scales)
            self.check(cols, system.n)

    def test_clearly_positive_grid_needs_no_kernel(self, monkeypatch):
        # The twin of poly:3, (const 1, x, x^2), leaves the basis undecided,
        # so the precheck searches the windows of the sweep.
        system = twin(polynomial_system(3, Interval(-2.0, 3.0)))
        grid = grid_on(-2, 3, 2000)
        cols = [system.evaluate_basis(x) for x in grid]

        def kernel(*args):
            raise AssertionError("minor_scan ran")

        monkeypatch.setattr(determinants, "minor_scan", kernel)
        windows = require_positive(system, grid, cols, True)
        assert "levels" in vars(windows)


def fuzz_entry(rng: random.Random) -> float:
    """One matrix entry: zeros of both signs, subnormals, magnitudes near
    1e+-300, small integers and ordinary floats, of either sign."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0.0, -0.0])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.choice([5e-324, 2.5e-310, rng.random() * 2.2e-308])
    if kind == 2:
        return rng.uniform(-1, 1) * 10.0 ** rng.choice([300, 307, -300, -307])
    if kind == 3:
        return float(rng.randint(-3, 3))
    return rng.uniform(-10, 10) * 2.0 ** rng.randint(-60, 60)


class TestExactSign:
    def test_matches_the_fraction_determinant(self):
        rng, seen = random.Random(20261018), set()
        for _ in range(800):
            k = rng.randint(1, 7)
            cols = [[fuzz_entry(rng) for _ in range(k)] for _ in range(k)]
            if k > 1 and rng.random() < 0.25:
                # a repeated column, or one scaled by a power of two
                i, j = rng.sample(range(k), 2)
                cols[j] = [x * rng.choice([1.0, -0.5, 4.0]) for x in cols[i]]
            exact = exact_det(cols)
            want = (exact > 0) - (exact < 0)
            assert exact_sign(cols) == want, cols
            seen.add((k, want))
        assert {want for _, want in seen} == {-1, 0, 1}
        assert {k for k, _ in seen} == set(range(1, 8))

    def test_exactly_singular_is_zero(self):
        assert exact_sign([[1.0, 2.0], [2.0, 4.0]]) == 0
        assert exact_sign([[0.0, -0.0, 0.0], [1.0, 2.0, 3.0], [5.0, 1.0, 3.0]]) == 0
        # below every float zero test, but not singular
        assert exact_sign([[1.0, 1.0], [1.0, 1.0 + EPS]]) == 1
        assert exact_sign([[5e-324, 0.0], [0.0, -5e-324]]) == -1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_has_no_sign(self, bad):
        for i in range(3):
            cols = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            cols[i][2 - i] = bad
            assert exact_sign(cols) is None

    def test_empty_matrix_is_positive(self):
        assert exact_sign([]) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 14: pivoting by raw magnitude gives a "
                              "wrong nonzero sign on rows of widely different scale")
    def test_kernel_sign_on_rows_of_wide_scale_matches_the_exact_sign(self):
        # Nearly singular, its rows spanning 2^±100: the kernel returns
        # -3.48e-19 at scale 1.24e-24, -2.8e5 times the scale, and sign_of
        # says "-"; the exact determinant of the floats is +6.9e-28.
        cols = [(-3.3093527415652853e-18, -1.328307912848137e-29, -3.5678633268351936e-16),
                (1.0144066829134124e-25, 3.1697928020779195e-21, -118414161302227.55),
                (1.014406682919423e-25, 3.169792882154011e-21, -118479516646009.02)]
        assert exact_sign(cols) == 1
        assert sign_of(*det_and_scale(minor_rows(cols, (0, 1, 2), 3))) == "+"


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
