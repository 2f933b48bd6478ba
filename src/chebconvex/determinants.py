"""Collocation matrices, their determinants, and the shared elimination kernel.

The collocation determinant of a system at points (x_1, ..., x_n) is the
determinant of the matrix whose (i, j) entry is basis_i(x_j); the bordered
determinant appends a row of target-function values to it. All sign
decisions are scale-relative: a determinant counts as zero when its
magnitude falls below ``64 * eps * scale`` where ``scale`` is the product
of the pre-elimination row max-norms. Row scales of Vandermonde-type
matrices vary over many orders of magnitude, which makes absolute
tolerances meaningless here.

One kernel computes every determinant: row-pivoted elimination, column by
column. The pivot of step d is the first entry of largest magnitude from
row d down in column d (``_pivot_step``, the one pivot search); carrying a
later column through the step swaps two of its rows and subtracts
multiples of row d (``_column``, the one row update). A column's entries
after d steps thus depend only on the first d columns and on itself, so
:func:`minor_scan` can reuse the steps and reduced columns of the prefix a
tuple shares with the previous one and still match :func:`det_and_scale`
bit for bit. In a lexicographic scan a tuple then costs one pivot step
and an O(k) scale product instead of a k x k elimination, so sampled scans
walk their tuples in sorted (trie) order and report what a scan in
sampler order would. Row max-norms are folded with C-level ``max`` over
absolute-value vectors computed once per scan; ``max`` keeps the first of
equal items, so ties and NaNs fold as in :func:`det_and_scale`'s row scan.
Callers pass basis columns, one per point, to :func:`minor_scan` as they
are, :func:`v_det` and :func:`d_det` as one tuple. The minimum point
separation of :func:`check_points` is fixed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import ne
from typing import Iterable, Iterator, Sequence, Union

from .errors import (ArgumentError, DegenerateInputError, DomainError,
                     NearSingularError, SourceEvalError)
from .systems import ChebyshevSystem

EPS = sys.float_info.epsilon

#: Multiplier on eps * scale used by every determinant zero test.
TAU_FACTOR = 64.0 * EPS

#: Minimum point separation, as a fraction of the interval span.
MIN_SEPARATION_FACTOR = 1e-9


@dataclass(frozen=True)
class PointTuple:
    """Distinct evaluation points; ``ordered`` means strictly increasing."""

    points: tuple[float, ...]
    ordered: bool

    @classmethod
    def of(cls, pts: Union["PointTuple", Sequence[float]]) -> "PointTuple":
        if isinstance(pts, PointTuple):
            return pts
        values = tuple(float(x) for x in pts)
        if not values:
            raise ArgumentError("point tuple must not be empty")
        for x in values:
            if not math.isfinite(x):
                raise ArgumentError(f"non-finite point {x!r}")
        if len(set(values)) != len(values):
            raise DegenerateInputError(f"coincident points in {values}")
        ordered = all(a < b for a, b in zip(values, values[1:]))
        return cls(values, ordered)

    def sorted(self) -> "PointTuple":
        if self.ordered:
            return self
        return PointTuple(tuple(sorted(self.points)), True)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]


PointsLike = Union[PointTuple, Sequence[float]]


@dataclass(frozen=True)
class SignedValue:
    """A determinant value with its tolerance-aware sign and scale proxy."""

    value: float
    sign: str  # '+', '-', '0'
    scale: float

    @property
    def tau(self) -> float:
        return TAU_FACTOR * self.scale


def sign_of(value: float, scale: float) -> str:
    # An exact zero is zero at any scale, a NaN one included.
    if value == 0.0 or abs(value) <= TAU_FACTOR * scale:
        return "0"
    return "+" if value > 0.0 else "-"


def classify_value(value: float, scale: float) -> SignedValue:
    return SignedValue(value, sign_of(value, scale), scale)


def _pivot_step(col: Sequence[float], d: int, det: float):
    """The pivot search of step ``d`` on ``col``, a column reduced to depth
    d: the step ``(d, pivot row, pivot, nonzero row factors)`` and ``det``
    carried through it, or ``(None, None)`` when the pivot is zero."""
    k = len(col)
    if d + 1 == k:
        return (None, None) if col[d] == 0.0 else ((d, d, col[d], ()), det * col[d])
    piv, best = d, abs(col[d])
    for r in range(d + 1, k):
        if abs(col[r]) > best:
            piv, best = r, abs(col[r])
    if best == 0.0:
        return None, None
    if piv != d:
        col = list(col)
        col[d], col[piv], det = col[piv], col[d], -det
    p, factors = col[d], []
    for r in range(d + 1, k):
        f = col[r] / p
        if f != 0.0:
            factors.append((r, f))
    return (d, piv, p, factors), det * p


def _column(levels: list, e: int, d: int, j: int) -> Sequence[float]:
    """Column ``j`` reduced to depth ``d`` by the steps of ``levels`` (see
    :func:`minor_scan`), starting from the deepest of levels 0..e that
    caches it and caching it at every level it passes: the row update."""
    while e and j not in levels[e][3]:
        e -= 1
    col = levels[e][3][j]
    for (s, piv, _, factors), _, _, cache in levels[e + 1:d + 1]:
        col = list(col)
        x = col[piv]
        if piv != s:
            col[piv] = col[s]
            col[s] = x
        for r, f in factors:
            col[r] -= f * x
        cache[j] = col
    return col


def _eliminate(cols: Sequence[Sequence[float]]) -> tuple:
    """Steps 0, 1, ... on ``cols`` in order while rows remain: the
    determinant (None at a zero pivot, where they stop), the levels, and
    their one shared cache, which ends up holding each column reduced to
    the depth of its own step."""
    det, reduced = 1.0, {}
    levels = [(None, 1.0, None, cols)]
    for d in range(len(cols[0])):
        step, det = _pivot_step(_column(levels, 0, d, d), d, det)
        if step is None:
            break
        levels.append((step, det, None, reduced))
    return det, levels, reduced


def minor_scan(vecs: Sequence[Sequence[float]],
               tuples: Iterable[Sequence[int]]) -> Iterator[tuple[float, float]]:
    """``(det, scale)`` of the square minor with columns ``vecs[t[0]], ...,
    vecs[t[k-1]]`` for each index tuple ``t`` (k entries per vector),
    lazily and in order. A tuple that shares its first c indices with the
    previous one reuses levels 0..c; see the module docstring."""
    absvecs = [[*map(abs, v)] for v in vecs]
    # levels[d], for the prefix t[:d]: the step taken on column t[d-1], the
    # determinant (None from a zero pivot on), the row max-norms, and the
    # columns reduced to depth d under the prefix, by index.
    levels: list = [(None, 1.0, None, vecs)]
    prefix: Sequence[int] = ()
    for t in tuples:
        last = len(t) - 1
        if t[:last] == prefix:
            c = last
        else:
            c = [*map(ne, prefix, t), True].index(True)
            del levels[c + 1:]
            prefix = t[:last]
        _, det, maxes, _ = levels[c]
        for d in range(c, last):
            j, step = t[d], None
            if det is not None:
                step, det = _pivot_step(_column(levels, c, d, j), d, det)
            maxes = absvecs[j] if maxes is None else [*map(max, maxes, absvecs[j])]
            levels.append((step, det, maxes, {}))
        j = t[last]
        if det is not None:
            det = _pivot_step(_column(levels, c, last, j), last, det)[1]
        yield (0.0 if det is None else det,
               math.prod(absvecs[j] if maxes is None else map(max, maxes, absvecs[j])))


def _square_scale(rows: Sequence[Sequence[float]]) -> float:
    """The scale proxy of a square matrix, given by rows, which it checks."""
    n, scale = len(rows), 1.0
    for r in rows:
        if len(r) != n:
            raise ArgumentError(f"matrix rows must have {n} entries")
        scale *= max(map(abs, r))
    return scale


def det_and_scale(rows: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Determinant by row-pivoted Gaussian elimination, plus the scale proxy.

    ``scale`` is the product of the row max-norms taken before elimination;
    it is the conditioning proxy behind every zero test in the library. The
    empty matrix has determinant 1 by convention.
    """
    scale = _square_scale(rows)
    det = _eliminate(list(zip(*rows)))[0] if rows else 1.0
    return 0.0 if det is None else det, scale


def solve_with_det(rows: Sequence[Sequence[float]], rhs: Sequence[float]
                   ) -> tuple[list[float], SignedValue]:
    """Solve a square system and report the determinant from one elimination.

    The right-hand side is one more column carried through the steps of
    :func:`det_and_scale`. Raises :class:`NearSingularError` when the
    determinant does not clear its scale-relative tolerance.
    """
    n = len(rows)
    b = [float(v) for _, v in zip(rows, rhs)]
    if len(b) != n:
        raise ArgumentError("system dimensions do not match")
    scale = _square_scale(rows)
    det, levels, reduced = _eliminate([*zip(*rows), b])
    sv = classify_value(0.0 if det is None else det, scale)
    if sv.sign == "0":
        raise NearSingularError(
            f"collocation matrix is numerically singular (|det|={abs(sv.value):.3e} "
            f"<= tau={sv.tau:.3e})")
    # Entry i of a column is final after step i: column j at depth j holds
    # column j of the triangular factor, the right-hand side at depth n the
    # reduced right-hand side.
    y = _column(levels, 0, n, n)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc -= reduced[j][i] * x[j]
        x[i] = acc / levels[i + 1][0][2]
    return x, sv


def check_points(system: ChebyshevSystem, pts: PointsLike, expected: int) -> PointTuple:
    """Validate a point tuple against a system: size, containment, and the
    minimum separation ``MIN_SEPARATION_FACTOR`` times the span."""
    pts = PointTuple.of(pts)
    if len(pts) != expected:
        raise ArgumentError(f"expected {expected} points, got {len(pts)}")
    for x in pts:
        if not system.interval.contains(x):
            raise DomainError(f"point {x!r} outside {system.interval.describe()}")
    min_separation = MIN_SEPARATION_FACTOR * system.interval.tolerance_span
    ordered = sorted(pts.points)
    gap = min(b - a for a, b in zip(ordered, ordered[1:])) if len(pts) > 1 else math.inf
    if gap < min_separation:
        raise DegenerateInputError(
            f"points closer than the minimum separation {min_separation:.3e}")
    return pts


def function_row(f, pts: Sequence[float]) -> list[float]:
    try:
        return [float(f(x)) for x in pts]
    except SourceEvalError:
        raise
    except Exception as exc:
        raise SourceEvalError(f"target function failed at one of {tuple(pts)}") from exc


def v_det(system: ChebyshevSystem, pts: PointsLike) -> SignedValue:
    """Collocation determinant of ``system`` at ``pts`` (one point per column)."""
    pts = check_points(system, pts, system.n)
    cols = [system.evaluate_basis(x) for x in pts]
    return classify_value(*next(minor_scan(cols, [tuple(range(len(cols)))])))


def d_det(system: ChebyshevSystem, pts: PointsLike, f) -> SignedValue:
    """Bordered determinant: collocation rows of ``system`` plus the row of
    ``f`` values, at ``system.n + 1`` points."""
    pts = check_points(system, pts, system.n + 1)
    cols = [system.evaluate_basis(x) for x in pts]
    cols = [c + (v,) for c, v in zip(cols, function_row(f, pts))]
    return classify_value(*next(minor_scan(cols, [tuple(range(len(cols)))])))
