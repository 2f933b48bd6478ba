"""Classical and generalized divided differences.

The generalized divided difference of f at n points, with respect to an
n-function system, is the ratio of the bordered determinant built from the
first n-1 basis functions plus f over the full collocation determinant.
For the monomial system it reduces to the classical recurrence, and it is
symmetric under any permutation of the points: numerator and denominator
pick up the same column inversions.

Two divided differences of windows sharing n-1 points are linked by a
one-step update identity; :func:`recurrence_identity_residual` measures
how well the ratio satisfies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .determinants import (PointsLike, PointTuple, basis_minor, check_points,
                           classify_value, d_det, det_and_scale, function_row,
                           v_det)
from .errors import ArgumentError, NearSingularError
from .systems import ChebyshevSystem

#: Below this |V_n| / scale ratio a result is flagged (not failed) in reports.
ILL_CONDITIONING_THRESHOLD = 1e-8


@dataclass(frozen=True)
class DividedDifference:
    """A generalized divided difference value with its conditioning ratio."""

    value: float
    points: PointTuple
    system: Optional[ChebyshevSystem]
    conditioning: float

    @property
    def ill_conditioned(self) -> bool:
        return self.conditioning < ILL_CONDITIONING_THRESHOLD


def classical_dd(pts: PointsLike, f) -> float:
    """Classical divided difference over distinct points via the recurrence.

    Single point: f(x1). Longer tuples: the usual quotient of the two
    length-(k-1) differences, evaluated bottom-up so every contiguous
    subrange is computed once.
    """
    pts = PointTuple.of(pts)
    k = len(pts)
    table = function_row(f, pts)
    for level in range(1, k):
        for i in range(k - level):
            denom = pts[i + level] - pts[i]
            table[i] = (table[i + 1] - table[i]) / denom
    return table[0]


def gdd(system: ChebyshevSystem, pts: PointsLike, f,
        min_separation: Optional[float] = None) -> DividedDifference:
    """Generalized divided difference of ``f`` at ``system.n`` points.

    Both the full collocation determinant and the one of the truncated
    (n-1)-system at the n-1 smallest points must clear their zero
    tolerances; the error message names the determinant that degenerated.
    All three determinants are minors of one evaluation of the basis.
    """
    pts = check_points(system, pts, system.n, min_separation)
    cols = [system.evaluate_basis(x) for x in pts]
    fvals = function_row(f, pts)
    n = system.n
    every = range(n)
    denom = classify_value(*det_and_scale(basis_minor(cols, every, n)))
    if denom.sign == "0":
        raise NearSingularError(
            f"full-system collocation determinant degenerated at {pts.points}")
    if n >= 2:
        head = sorted(every, key=pts.points.__getitem__)[: n - 1]
        trunc = classify_value(*det_and_scale(basis_minor(cols, head, n - 1)))
        if trunc.sign == "0":
            raise NearSingularError("truncated-system collocation determinant "
                                    f"degenerated at {tuple(pts[j] for j in head)}")
    num, _ = det_and_scale(basis_minor(cols, every, n - 1, fvals))
    return DividedDifference(
        value=num / denom.value,
        points=pts,
        system=system,
        conditioning=abs(denom.value) / denom.scale if denom.scale > 0.0 else 1.0,
    )


def recurrence_identity_residual(system: ChebyshevSystem, pts: PointsLike, f,
                                 min_separation: Optional[float] = None) -> float:
    """Relative residual of the window-update identity at n+1 distinct points.

    Left side: difference of the divided differences of the two length-n
    windows. Right side: bordered determinant of the full tuple times the
    truncated determinant of the shared middle points, over the product of
    the two window determinants. Reported relative to max(|lhs|, |rhs|, 1).
    """
    n = system.n
    if n < 2:
        raise ArgumentError("the update identity needs a system of order >= 2")
    pts = check_points(system, pts, n + 1, min_separation)
    hi = gdd(system, pts.points[1:], f, min_separation).value
    lo = gdd(system, pts.points[:n], f, min_separation).value
    lhs = hi - lo
    bordered = d_det(system, pts, f, min_separation)
    mid = v_det(system.truncate(n - 1), pts.points[1:n], min_separation)
    v_hi = v_det(system, pts.points[1:], min_separation)
    v_lo = v_det(system, pts.points[:n], min_separation)
    if mid.sign == "0":
        raise NearSingularError("shared-point determinant degenerated in the identity")
    rhs = bordered.value * mid.value / (v_hi.value * v_lo.value)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
