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
row d down in column d (``_pivot_step``); carrying a later column through
the step swaps two of its rows and subtracts multiples of row d
(``_reduce``). A column's entries after d steps thus depend only on the
first d columns and on itself, so :func:`minor_scan` can reuse the steps
and reduced columns of the prefix a tuple shares with the previous one
and still match :func:`det_and_scale` bit for bit. In a lexicographic scan
a tuple then costs one pivot step and an O(k) scale product instead of a
k x k elimination.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (ArgumentError, DegenerateInputError, DomainError,
                     NearSingularError, SourceEvalError)
from .systems import ChebyshevSystem

EPS = sys.float_info.epsilon

#: Multiplier on eps * scale used by every determinant zero test.
TAU_FACTOR = 64.0 * EPS

#: Default minimum point separation, as a fraction of the interval span.
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
    if abs(value) <= TAU_FACTOR * scale:
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
    factors = [(r, f) for r in range(d + 1, k) if (f := col[r] / col[d]) != 0.0]
    return (d, piv, col[d], factors), det * col[d]


def _reduce(step, cols: Iterable[Sequence[float]]) -> list[list[float]]:
    """Copies of ``cols`` carried through ``step``: the row update."""
    d, piv, _, factors = step
    out = []
    for col in cols:
        col = list(col)
        col[d], col[piv] = col[piv], col[d]
        for r, factor in factors:
            col[r] -= factor * col[d]
        out.append(col)
    return out


def _eliminate(cols: list, d: int, det: float) -> tuple:
    """Steps d, d+1, ... on the leading columns of ``cols`` (reduced to depth d)
    while rows remain: the determinant (None at a zero pivot, where they stop),
    each step with its determinant and pivot column, and the columns left."""
    trace, k = [], len(cols[0])
    for d in range(d, k):
        step, det = _pivot_step(cols[0], d, det)
        trace.append((step, det, cols[0]))
        if step is None:
            break
        cols = _reduce(step, cols[1:]) if d + 1 < k else cols[1:]
    return det, trace, cols


def _fold(maxes: Optional[list[float]], col: Sequence[float]) -> list[float]:
    """Row max-norms ``maxes`` (None before any column) carried over ``col``."""
    if maxes is None:
        return list(map(abs, col))
    out = []
    for m, x in zip(maxes, map(abs, col)):
        out.append(x if x > m else m)
    return out


def minor_scan(vecs: Sequence[Sequence[float]],
               tuples: Iterable[Sequence[int]]) -> Iterator[tuple[float, float]]:
    """``(det, scale)`` of the square minor with columns ``vecs[t[0]], ...,
    vecs[t[k-1]]`` for each index tuple ``t`` (k >= 1 entries per vector),
    lazily and in order. A tuple that shares its first c indices with the
    previous one reuses levels 0..c; see the module docstring."""
    # levels[d], for the prefix t[:d]: its last step, its determinant (None
    # from a zero pivot on), its row max-norms, its columns reduced to depth d.
    levels: list = [(None, 1.0, None, None)]
    prefix: tuple = ()

    def reduced(d: int, j: int) -> Sequence[float]:
        if d == 0:
            return vecs[j]
        cache = levels[d][3]
        if j not in cache:
            cache[j] = _reduce(levels[d][0], [reduced(d - 1, j)])[0]
        return cache[j]

    for t in tuples:
        c, last = 0, len(t) - 1
        if t[:last] == prefix:
            c = last
        else:
            while c < len(prefix) and prefix[c] == t[c]:
                c += 1
            del levels[c + 1:]
            prefix = tuple(t[:last])
        _, det, maxes, _ = levels[c]
        if c < last:
            trace = []
            if det is not None:
                cols = [reduced(c, j) for j in t[c:]] if c else [vecs[j] for j in t]
                det, trace, _ = _eliminate(cols, c, det)
            for d in range(c, last):
                step, step_det, _ = trace[d - c] if d - c < len(trace) else (None,) * 3
                maxes = _fold(maxes, vecs[t[d]])
                levels.append((step, step_det, maxes, {}))
        elif det is not None:
            det = _pivot_step(reduced(c, t[c]), c, det)[1]
        yield (0.0 if det is None else det,
               math.prod(_fold(maxes, vecs[t[last]]), start=1.0))


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
    det = _eliminate(list(zip(*rows)), 0, 1.0)[0] if rows else 1.0
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
    det, trace, rest = _eliminate([*zip(*rows), b], 0, 1.0)
    sv = classify_value(0.0 if det is None else det, scale)
    if sv.sign == "0":
        raise NearSingularError(
            f"collocation matrix is numerically singular (|det|={abs(sv.value):.3e} "
            f"<= tau={sv.tau:.3e})")
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = rest[-1][i]
        for j in range(i + 1, n):
            acc -= trace[j][2][i] * x[j]
        x[i] = acc / trace[i][0][2]
    return x, sv


def check_points(system: ChebyshevSystem, pts: PointsLike, expected: int,
                 min_separation: Optional[float] = None) -> PointTuple:
    """Validate a point tuple against a system: size, containment, separation."""
    pts = PointTuple.of(pts)
    if len(pts) != expected:
        raise ArgumentError(f"expected {expected} points, got {len(pts)}")
    for x in pts:
        if not system.interval.contains(x):
            raise DomainError(f"point {x!r} outside {system.interval.describe()}")
    if min_separation is None:
        min_separation = MIN_SEPARATION_FACTOR * system.interval.tolerance_span
    if min_separation > 0.0:
        ordered = sorted(pts.points)
        gap = min(b - a for a, b in zip(ordered, ordered[1:])) if len(pts) > 1 else math.inf
        if gap < min_separation:
            raise DegenerateInputError(
                f"points closer than the minimum separation {min_separation:.3e}")
    return pts


def basis_minor(cols: Sequence[Sequence[float]], t: Sequence[int], k: int,
                fvals: Optional[Sequence[float]] = None) -> list[list[float]]:
    """Collocation rows of the first ``k`` basis functions at the columns
    ``t`` of precomputed basis values (``cols[j]`` holds every basis value
    at point j), with the row of ``fvals`` at ``t`` appended when given."""
    rows = [[cols[j][i] for j in t] for i in range(k)]
    if fvals is not None:
        rows.append([fvals[j] for j in t])
    return rows


def function_row(f, pts: Sequence[float]) -> list[float]:
    try:
        return [float(f(x)) for x in pts]
    except SourceEvalError:
        raise
    except Exception as exc:
        raise SourceEvalError(f"target function failed at one of {tuple(pts)}") from exc


def v_det(system: ChebyshevSystem, pts: PointsLike,
          min_separation: Optional[float] = None) -> SignedValue:
    """Collocation determinant of ``system`` at ``pts`` (one point per column)."""
    pts = check_points(system, pts, system.n, min_separation)
    cols = [system.evaluate_basis(x) for x in pts]
    rows = basis_minor(cols, range(len(pts)), system.n)
    return classify_value(*det_and_scale(rows))


def d_det(system: ChebyshevSystem, pts: PointsLike, f,
          min_separation: Optional[float] = None) -> SignedValue:
    """Bordered determinant: collocation rows of ``system`` plus the row of
    ``f`` values, at ``system.n + 1`` points."""
    pts = check_points(system, pts, system.n + 1, min_separation)
    cols = [system.evaluate_basis(x) for x in pts]
    rows = basis_minor(cols, range(len(pts)), system.n, function_row(f, pts))
    return classify_value(*det_and_scale(rows))
