import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (CERTIFIED, VIOLATED, ExpressionSource, Interval,
                        certify_corollary1, certify_theorem_a, classify_on_grid,
                        cosine_sine_system, exponential_system,
                        negated_polynomial_system, polynomial_system)
from chebconvex.determinants import det_and_scale, sign_of
from chebconvex.sampling import ordered_index_tuples, scan_tuples

from conftest import minor_rows, separated_points_strategy


class TestScanTuples:
    def test_exhaustive_within_the_budget_without_asking_the_windows(self):
        def never():
            raise AssertionError("windows asked")

        tuples, coverage, answer = scan_tuples(8, 3, 56, 1, never)
        assert (coverage, answer) == ("exhaustive", None)
        assert tuples == list(itertools.combinations(range(8), 3))

    def test_windows_when_they_decide(self):
        tuples, coverage, answer = scan_tuples(8, 3, 55, 1, lambda: "verdict")
        assert (coverage, answer) == ("windows", "verdict")
        assert tuples == [(i, i + 1, i + 2) for i in range(6)]

    def test_sample_otherwise(self):
        tuples, coverage, answer = scan_tuples(8, 3, 55, 1, lambda: None)
        assert (coverage, answer) == ("sampled", None)
        assert tuples == ordered_index_tuples(8, 3, budget=55, seed=1)


class TestSampler:
    @pytest.mark.parametrize("m, k", [(3, 4), (3, 0)])
    def test_no_tuples_outside_one_to_m_points(self, m, k):
        for options in ({}, {"budget": 1}, {"windows_only": True}):
            assert ordered_index_tuples(m, k, **options) == []

    def test_stream_of_random_sample(self):
        """The seeded tuples are those of ``random.Random.sample``, on both
        of its branches: a pool of m indices while that list is smaller
        than a set of k picks (m <= 21 for k <= 5, m <= 85 for k = 6, 7),
        else redraws into a set."""

        def reference(m, k, budget, seed):
            windows = [tuple(range(i, i + k)) for i in range(m - k + 1)]
            rng = random.Random(seed)
            out, seen = list(windows), set(windows)
            for _ in range(20 * budget):
                if len(out) >= budget:
                    break
                t = tuple(sorted(rng.sample(range(m), k)))
                if t not in seen:
                    seen.add(t)
                    out.append(t)
            return out

        sampled = 0
        for k in range(1, 8):
            for m in range(k, 91):
                total = math.comb(m, k)
                if total <= m - k + 2:
                    continue
                # a few draws, a few windows' worth, and up to all of C(m, k)
                for budget in {m - k + 2, min(total - 1, 2 * m), min(total - 1, 40)}:
                    for seed in (0, 1, 2024):
                        got = ordered_index_tuples(m, k, budget=budget, seed=seed)
                        assert got == reference(m, k, budget, seed), (m, k, budget, seed)
                        sampled += 1
        assert sampled > 4000


def exact_det(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def minor_sign(matrix, t) -> int:
    """Sign of the minor on the first len(t) rows and the columns t."""
    det = exact_det([[row[j] for j in t] for row in matrix[:len(t)]])
    return (det > 0) - (det < 0)


def window_signs(matrix, k) -> set:
    m = len(matrix[0])
    return {minor_sign(matrix, range(i, i + k)) for i in range(m - k + 1)}


def tuple_signs(matrix, k) -> set:
    return {minor_sign(matrix, t) for t in itertools.combinations(range(len(matrix[0])), k)}


class TestFeketeCriterion:
    """The criterion behind the windows route, in exact arithmetic and
    without the package: if, at every order k <= n, the windows of k
    consecutive columns under the first k rows share one nonzero sign, then
    every k-tuple of columns has that sign."""

    def test_windows_of_every_order_decide_every_tuple(self):
        rng = random.Random(12)
        held = top_only = top_only_fails = 0
        for _ in range(1500):
            m, n = rng.randint(4, 6), rng.randint(2, 3)
            # a sign per row, so that every sign pattern of the orders occurs
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            matrix = [[s * rng.randint(1, 9) for _ in range(m)] for s in signs]
            windows = [window_signs(matrix, k) for k in range(1, n + 1)]
            if all(len(w) == 1 and 0 not in w for w in windows):
                held += 1
                for k, w in enumerate(windows, 1):
                    assert tuple_signs(matrix, k) == w
            elif len(windows[-1]) == 1 and 0 not in windows[-1]:
                top_only += 1
                top_only_fails += tuple_signs(matrix, n) != windows[-1]
        assert held >= 10
        # With the top order's windows alone, the conclusion often fails.
        assert top_only_fails >= 0.5 * top_only > 0

    def test_the_lower_orders_are_needed(self):
        # Its windows of two columns are positive, but the first row changes
        # sign, and columns 0 and 2 give a negative minor.
        matrix = [[1, -1, 1, 2], [1, 0, -2, -3]]
        assert window_signs(matrix, 2) == {1}
        assert window_signs(matrix, 1) == {-1, 1}
        assert minor_sign(matrix, (0, 2)) == -1


def reference_classify(system, grid):
    """Exhaustive float scan of the collocation minors, one at a time."""
    cols = [system.evaluate_basis(x) for x in grid]
    signs = {sign_of(*det_and_scale(minor_rows(cols, t, system.n)))
             for t in itertools.combinations(range(len(grid)), system.n)}
    if len(signs) > 1 or "0" in signs:
        return "non-chebyshev"
    return "positive" if signs == {"+"} else "negative"


def reference_values(method, system, f, grid, atol=1e-10, rtol=1e-8):
    """Exhaustive float scan of one certificate's (n+1)-tuples, one at a
    time: the verdict, and each window's value and tolerance by its first
    index."""
    n = system.n
    cols = [system.evaluate_basis(x) for x in grid]
    fvals = [f(x) for x in grid]

    def dd(w):
        num = det_and_scale(minor_rows(cols, w, n - 1, fvals))[0]
        return num / det_and_scale(minor_rows(cols, w, n))[0]

    violated, windows = False, {}
    for t in itertools.combinations(range(len(grid)), n + 1):
        if method == "theoremA":
            value, scale = det_and_scale(minor_rows(cols, t, n, fvals))
            tol = atol + rtol * scale
        else:
            lo, hi = dd(t[:n]), dd(t[1:])
            value, tol = hi - lo, atol + rtol * max(abs(hi), abs(lo))
        violated |= value < -tol
        if t[-1] - t[0] == n:
            windows[t[0]] = value, tol
    return (VIOLATED if violated else CERTIFIED), windows


@st.composite
def routed_cases(draw):
    """Systems whose windows keep one sign at every order on a separated
    grid, with targets convex with respect to them, so that every scan takes
    the windows route; certificates get the positive systems only."""
    kind = draw(st.sampled_from(["poly", "negpoly", "exp", "cossin"]))
    lo, hi = (0.0, 1.4) if kind == "cossin" else (-1.0, 1.0)
    interval = Interval(lo, hi)
    if kind == "cossin":
        system, targets = cosine_sine_system(interval), [("const", 1.0), ("const", 2.5)]
    elif kind == "exp":
        n = draw(st.integers(2, 3))
        system = exponential_system([float(a) for a in range(n)], interval)
        targets = [("exp", float(n)), ("exp", n + 0.5)]
    else:
        n = draw(st.integers(1, 4))
        maker = polynomial_system if kind == "poly" else negated_polynomial_system
        system = maker(n, interval)
        targets = [("monomial", n), ("exp", 1.0), ("exp", 2.5)]
    kind_, param = draw(st.sampled_from(targets))
    m = draw(st.integers(system.n + 2, 9))
    grid = list(draw(separated_points_strategy(m, lo, hi, sep=0.1)))
    cap = min(math.comb(m, system.n), math.comb(m, system.n + 1))
    budget = draw(st.integers(1, cap - 1))
    return kind, system, ExpressionSource(kind_, (param,)), grid, budget


class TestWindowsRoute:
    @settings(max_examples=60, deadline=None)
    @given(routed_cases(), st.integers(0, 99))
    def test_route_agrees_with_an_exhaustive_scan(self, case, seed):
        kind, system, f, grid, budget = case
        m, n = len(grid), system.n
        got = classify_on_grid(system, grid, budget=budget, seed=seed)
        assert (got.coverage, got.tuples_checked) == ("windows", m - n + 1)
        assert got.verdict == reference_classify(system, grid)
        assert got.verdict == classify_on_grid(system, grid, budget=math.comb(m, n)).verdict
        if kind == "negpoly":
            return
        for method, certify in (("theoremA", certify_theorem_a),
                                ("corollary1", certify_corollary1)):
            cert = certify(system, f, grid, budget=budget, seed=seed)
            assert (cert.coverage, cert.tuples_checked) == ("windows", m - n)
            verdict, windows = reference_values(method, system, f, grid)
            assert cert.verdict == verdict == CERTIFIED
            assert cert.min_value == min(value for value, _ in windows.values())
            full = certify(system, f, grid, budget=math.comb(m, n + 1))
            assert (full.coverage, full.verdict) == ("exhaustive", verdict)


@st.composite
def negative_window_cases(draw):
    """Positive systems with targets whose bordered windows are negative on
    a separated grid of [-1, 1]: -x^n w.r.t. poly:n, e^(x/2) w.r.t. exp:0,1
    and e^-x w.r.t. exp:0,1,2."""
    kind = draw(st.sampled_from(["poly", "exp:0,1", "exp:0,1,2"]))
    if kind == "poly":
        n = draw(st.integers(1, 4))
        system, f = polynomial_system(n), ExpressionSource("negmonomial", (n,))
    elif kind == "exp:0,1":
        system, f = exponential_system([0.0, 1.0]), ExpressionSource("exp", (0.5,))
    else:
        system, f = exponential_system([0.0, 1.0, 2.0]), ExpressionSource("exp", (-1.0,))
    m = draw(st.integers(system.n + 2, 9))
    grid = list(draw(separated_points_strategy(m, -1.0, 1.0, sep=0.1)))
    budget = draw(st.integers(1, math.comb(m, system.n + 1) - 1))
    return system, f, grid, budget


class TestNegativeWindowsRoute:
    @settings(max_examples=60, deadline=None)
    @given(negative_window_cases(), st.integers(0, 99))
    def test_route_agrees_with_an_exhaustive_scan(self, case, seed):
        """Past the budget, negative bordered windows decide a certificate
        exactly when the worst of them violates: then the verdict is the
        exhaustive scan's, and the minimum and the witness are the worst
        window's."""
        system, f, grid, budget = case
        m, n = len(grid), system.n
        for method, certify in (("theoremA", certify_theorem_a),
                                ("corollary1", certify_corollary1)):
            cert = certify(system, f, grid, budget=budget, seed=seed)
            verdict, windows = reference_values(method, system, f, grid)
            worst, i = min((value, i) for i, (value, _) in windows.items())
            if worst >= -windows[i][1]:
                assert cert.coverage == "sampled"
                continue
            assert (cert.coverage, cert.tuples_checked) == ("windows", m - n)
            assert cert.verdict == verdict == VIOLATED
            # an increasing grid tuple: the worst window
            assert cert.witness == tuple(grid[i:i + n + 1])
            assert cert.min_value == cert.witness_value == worst
