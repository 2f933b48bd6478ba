"""Collocation matrices, their determinants, and the shared elimination kernel.

The collocation determinant of a system at points (x_1, ..., x_n) is the
determinant of the matrix whose (i, j) entry is basis_i(x_j); the bordered
determinant appends a row of target-function values to it. All sign
decisions are scale-relative: a determinant counts as zero when its
magnitude falls below ``64 * eps * scale`` where ``scale`` is the product
of the pre-elimination row max-norms. Row scales of Vandermonde-type
matrices vary over many orders of magnitude, which makes absolute
tolerances meaningless here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

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


def _eliminate(a: list[list[float]], n: int, width: int) -> tuple[float, float]:
    """Row-pivoted forward elimination, in place, of the first ``n`` columns
    of the n x ``width`` matrix ``a``; further columns are carried along.

    Returns the determinant of the leading n x n block (0.0 at the first
    zero pivot) and its scale proxy: the product of the block's row
    max-norms taken before elimination.
    """
    scale = 1.0
    for r in a:
        if len(r) != width:
            raise ArgumentError(f"matrix rows must have {width} entries")
        scale *= max(map(abs, r if width == n else r[:n]))
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
                lower, upper = a[r], a[col]
                for c in range(col + 1, width):
                    lower[c] -= factor * upper[c]
    return det, scale


def det_and_scale(rows: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Determinant by row-pivoted Gaussian elimination, plus the scale proxy.

    ``scale`` is the product of the row max-norms taken before elimination;
    it is the conditioning proxy behind every zero test in the library. The
    empty matrix has determinant 1 by convention.
    """
    n = len(rows)
    return _eliminate([list(r) for r in rows], n, n)


def solve_with_det(rows: Sequence[Sequence[float]], rhs: Sequence[float]
                   ) -> tuple[list[float], SignedValue]:
    """Solve a square system and report the determinant from one elimination.

    Shares the elimination (and therefore the zero tolerance) with
    :func:`det_and_scale`. Raises :class:`NearSingularError` when the
    determinant does not clear its scale-relative tolerance.
    """
    n = len(rows)
    a = [list(r) + [float(b)] for r, b in zip(rows, rhs)]
    if len(a) != n:
        raise ArgumentError("system dimensions do not match")
    sv = classify_value(*_eliminate(a, n, n + 1))
    if sv.sign == "0":
        raise NearSingularError(
            f"collocation matrix is numerically singular (|det|={abs(sv.value):.3e} "
            f"<= tau={sv.tau:.3e})")
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
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


def function_row(f, pts: PointTuple) -> list[float]:
    try:
        return [float(f(x)) for x in pts]
    except SourceEvalError:
        raise
    except Exception as exc:
        raise SourceEvalError(f"target function failed at one of {pts.points}") from exc


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
