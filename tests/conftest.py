"""Shared fixtures, generators, and independent oracles for the test suite.

The determinant oracle expands by cofactors, so it shares no code with the
elimination kernel under test; the divided-difference oracle runs the
classical recurrence in exact rational arithmetic. Point generators are
seeded and rejection sample until the minimum separation holds.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from chebconvex import (BasisFunction, ChebyshevSystem, ExpressionSource, Interval,
                        exponential_system, polynomial_system)
from chebconvex import convexity, determinants, systems


def det_bruteforce(rows):
    """Cofactor-expansion determinant; exact control oracle for small n."""
    n = len(rows)
    if n == 0:
        return 1.0
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_bruteforce(minor)
        total += -term if j % 2 else term
    return total


def exact_classical_dd(pts, f) -> Fraction:
    """Classical divided difference of the values of f at ``pts`` by the
    recurrence, in exact ``Fraction`` arithmetic on the floats themselves."""
    xs = [Fraction(x) for x in pts]
    table = [Fraction(f(x)) for x in pts]
    for level in range(1, len(xs)):
        table = [(b - a) / (xs[i + level] - xs[i])
                 for i, (a, b) in enumerate(zip(table, table[1:]))]
    return table[0]


def minor_rows(cols, t, k, fvals=None):
    """Rows of the first ``k`` basis values at the columns ``t`` of ``cols``
    (``cols[j]`` holds every basis value at point j), plus the row of
    ``fvals`` at ``t`` when given: the matrix form of a scanned minor."""
    rows = [[cols[j][i] for j in t] for i in range(k)]
    if fvals is not None:
        rows.append([fvals[j] for j in t])
    return rows


def draw_separated(rng: random.Random, n: int, lo=-1.0, hi=1.0, sep=0.05):
    """Sorted n points in [lo, hi] with pairwise separation >= sep."""
    while True:
        pts = sorted(rng.uniform(lo, hi) for _ in range(n))
        if all(b - a >= sep for a, b in zip(pts, pts[1:])):
            return tuple(pts)


def separated_points_strategy(n: int, lo=-1.0, hi=1.0, sep=0.05):
    """Hypothesis strategy for sorted separated points, built from gaps."""
    slack = (hi - lo) - (n - 1) * sep
    assert slack > 0
    start = st.floats(min_value=lo, max_value=lo + slack * 0.5,
                      allow_nan=False, allow_infinity=False)
    gap = st.floats(min_value=sep, max_value=sep + slack * 0.5 / max(n - 1, 1),
                    allow_nan=False, allow_infinity=False)
    gaps = st.lists(gap, min_size=n - 1, max_size=n - 1)

    def assemble(args):
        x0, steps = args
        pts = [x0]
        for g in steps:
            pts.append(pts[-1] + g)
        return tuple(pts)

    return st.tuples(start, gaps).map(assemble).filter(lambda p: p[-1] <= hi)


# Target functions used throughout.
F_CUBE = ExpressionSource("monomial", (3,))
F_SQUARE = ExpressionSource("monomial", (2,))
F_FIFTH = ExpressionSource("monomial", (5,))
F_EXP = ExpressionSource("exp", (1,))
F_NEG_CUBE = ExpressionSource("negmonomial", (3,))
F_NEG_SQUARE = ExpressionSource("negmonomial", (2,))

FIXTURE_FUNCTIONS = (F_FIFTH, F_EXP, F_SQUARE)


@pytest.fixture
def poly3():
    return polynomial_system(3)


@pytest.fixture
def poly2():
    return polynomial_system(2)


@pytest.fixture
def poly3_box():
    return polynomial_system(3, Interval(-2.0, 3.0))


@pytest.fixture
def exp01():
    return exponential_system((0.0, 1.0), Interval(-1.0, 1.0))


@pytest.fixture
def basis_calls(monkeypatch):
    """Counter of the points the basis is evaluated at, by point: one per
    ``ChebyshevSystem.evaluate_basis`` call, and one per point of each
    ``ChebyshevSystem.evaluate_rows`` call, which ``evaluate_grid`` makes."""
    calls = Counter()
    evaluate = ChebyshevSystem.evaluate_basis
    evaluate_rows = ChebyshevSystem.evaluate_rows

    def counting(self, x):
        calls[x] += 1
        return evaluate(self, x)

    def counting_rows(self, xs):
        calls.update(xs)
        return evaluate_rows(self, xs)

    monkeypatch.setattr(ChebyshevSystem, "evaluate_basis", counting)
    monkeypatch.setattr(ChebyshevSystem, "evaluate_rows", counting_rows)
    return calls


@pytest.fixture
def minor_counts(monkeypatch):
    """Counter of the minors ``determinants.minor_scan`` computes, by order,
    wherever the package calls it: one per index tuple the scan takes."""
    counts = Counter()
    scan = determinants.minor_scan

    def counting(vecs, tuples):
        def taken():
            for t in tuples:
                counts[len(t)] += 1
                yield t
        return scan(vecs, taken())

    for module in (determinants, convexity, systems):
        monkeypatch.setattr(module, "minor_scan", counting)
    return counts


def twin(system: ChebyshevSystem) -> ChebyshevSystem:
    """``system`` with each power-0 function replaced by the constant it
    evaluates to, 1.0 for ``monomial 0`` and -1.0 for ``negmonomial 0``:
    the same floats and the same description, but a basis that
    :func:`systems.structural_sign` leaves undecided, so the positivity
    precheck takes the grid path."""
    constants = {"monomial": 1.0, "negmonomial": -1.0}
    basis = tuple(BasisFunction("const", constants[b.kind])
                  if b.kind in constants and b.param == 0 else b for b in system.basis)
    return ChebyshevSystem(basis, system.interval)


def grid_on(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    pts = [lo + i * step for i in range(count - 1)]
    pts.append(hi)
    return pts


def exp_rates(n: int) -> tuple[float, ...]:
    return tuple(float(k) for k in range(n))


def relgap(a: float, b: float, floor: float = 1.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def is_close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return relgap(a, b, floor) <= rel


def assert_halving(h_sequence):
    hs = [h for h, _ in h_sequence]
    assert all(h1 == pytest.approx(h0 / 2.0) for h0, h1 in zip(hs, hs[1:]))
    assert all(h0 > h1 for h0, h1 in zip(hs, hs[1:]))
