import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebconvex import (ArgumentError, DegenerateInputError, DomainError,
                        ExpressionSource, Interval, PointTuple, SourceEvalError,
                        d_det, negated_polynomial_system, polynomial_system,
                        v_det)
from chebconvex.determinants import (det_and_scale, minor_scan, sign_of,
                                     solve_with_det)
from chebconvex.errors import NearSingularError
from chebconvex.sampling import ordered_index_tuples

from conftest import (F_CUBE, F_SQUARE, det_bruteforce, draw_separated,
                      minor_rows, separated_points_strategy)


class TestPointTuple:
    def test_ordered_flag(self):
        assert PointTuple.of((0.0, 1.0, 2.0)).ordered
        assert not PointTuple.of((1.0, 0.0, 2.0)).ordered

    def test_rejects_duplicates_and_nonfinite(self):
        with pytest.raises(DegenerateInputError):
            PointTuple.of((0.0, 1.0, 1.0))
        with pytest.raises(ArgumentError):
            PointTuple.of(())
        with pytest.raises(ArgumentError):
            PointTuple.of((0.0, math.inf))

    def test_sorted(self):
        pts = PointTuple.of((2.0, 0.0, 1.0)).sorted()
        assert pts.points == (0.0, 1.0, 2.0) and pts.ordered


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

    def test_accepts_point_tuple_instances(self):
        pts = PointTuple.of((0.0, 1.0, 2.0))
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
